import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from hiem import agent as agent_module
from hiem.agent import (
    AnonymousOptionSpace,
    Batch,
    HiemAgent,
    HiemParams,
    LabelSubgoalSpace,
    Transition,
    default_params,
    STOP_EPISODE_CAP,
    STOP_GOAL,
    STOP_STEP_CAP,
    STOP_SUBGOAL,
    STOP_TERMINATED,
    ValueDriftError,
)
from hiem.config import load_config
from hiem.gridworld import Action, AgentPose, EpisodeSpec, Heading, N_ACTIONS, State
from hiem.mapfile import parse_map_text
from hiem.metrics import evaluate, sample_episode_specs
from hiem.nets import ConstantSchedule

from test_gridworld import all_poses

CORRIDOR = """\
[map]
#########
#.......#
#########
[legend]
a = amp
[params]
goal_distance = 2
"""


def corridor_world(goal_x=7):
    rows = ["#########", "#.......#", "#########"]
    row = list(rows[1])
    row[goal_x] = "a"
    rows[1] = "".join(row)
    text = CORRIDOR.replace(
        "#########\n#.......#\n#########", "\n".join(rows)
    )
    return parse_map_text(text)


def small_agent(world, seed=0, **overrides):
    params = default_params(100, min_buffer=64, batch_size=16, hidden=(16,),
                            **overrides)
    return HiemAgent(world, LabelSubgoalSpace(world), params, seed)


def force_term(agent, level, target_too=True):
    """Saturate the termination head bias: +-1e3 makes sigmoid exactly 1/0."""
    bias = 1e3 if level == 1 else -1e3
    agent.high.tW[...] = 0.0
    agent.high.tb[...] = bias
    if target_too:
        agent.high_t.tW[...] = 0.0
        agent.high_t.tb[...] = bias


class TestProposeSubgoal:
    def test_no_visible_objects_gives_random(self, bench15):
        ag = small_agent(bench15)
        hist = np.zeros(ag.codec.high_dim - bench15.n_labels)
        sg = ag.propose_subgoal(hist, 0, frozenset(), eps=0.0,
                                rng=np.random.default_rng(0))
        assert sg == ag.space.random_index

    def test_greedy_argmax_over_visible(self, bench15):
        ag = small_agent(bench15)
        sofa = bench15.label_names.index("sofa")
        table = bench15.label_names.index("table")
        # rig the q head: sofa 0.8, table 0.3, random 0.1, rest lower
        ag.high.W[0][...] = 0.0
        ag.high.b[0][...] = 1.0  # constant trunk activation
        ag.high.qW[...] = 0.0
        ag.high.qb[...] = -1.0
        ag.high.qb[sofa] = 0.8
        ag.high.qb[table] = 0.3
        ag.high.qb[ag.space.random_index] = 0.1
        hist = np.zeros(ag.codec.high_dim - bench15.n_labels)
        sg = ag.propose_subgoal(hist, 0, frozenset({sofa, table}), 0.0,
                                np.random.default_rng(0))
        assert sg == sofa

    def test_mask_excludes_invisible_label(self, bench15):
        ag = small_agent(bench15)
        sofa = bench15.label_names.index("sofa")
        table = bench15.label_names.index("table")
        ag.high.W[0][...] = 0.0
        ag.high.b[0][...] = 1.0
        ag.high.qW[...] = 0.0
        ag.high.qb[...] = -1.0
        ag.high.qb[table] = 5.0  # best overall but not visible
        ag.high.qb[sofa] = 0.2
        hist = np.zeros(ag.codec.high_dim - bench15.n_labels)
        sg = ag.propose_subgoal(hist, 0, frozenset({sofa}), 0.0,
                                np.random.default_rng(0))
        assert sg == sofa

    def test_eps_one_uniform_over_valid(self, bench15):
        ag = small_agent(bench15)
        sofa = bench15.label_names.index("sofa")
        rng = np.random.default_rng(0)
        hist = np.zeros(ag.codec.high_dim - bench15.n_labels)
        seen = {
            ag.propose_subgoal(hist, 0, frozenset({sofa}), 1.0, rng)
            for _ in range(200)
        }
        assert seen == {sofa, ag.space.random_index}


class TestLowPolicies:
    def test_act_low_argmax(self, bench15):
        ag = small_agent(bench15)
        ag.low_ext.W[0][...] = 0.0
        ag.low_ext.b[0][...] = 1.0
        ag.low_ext.W[1][...] = 0.0
        ag.low_ext.b[1][...] = np.array([0.1, 0.9, 0.2, 0.2, 0.0, 0.3])
        frame = np.zeros(ag.codec.frame_dim)
        a = ag.act_low(frame, 0, 0, 0.0, np.random.default_rng(0))
        assert a == 1

    def test_act_low_rejects_random_subgoal(self, bench15):
        ag = small_agent(bench15)
        frame = np.zeros(ag.codec.frame_dim)
        with pytest.raises(ValueError):
            ag.act_low(frame, 0, ag.space.random_index, 0.0, np.random.default_rng(0))

    def test_eps_one_covers_all_actions(self, bench15):
        ag = small_agent(bench15)
        frame = np.zeros(ag.codec.frame_dim)
        rng = np.random.default_rng(1)
        seen = {ag.act_low(frame, 0, 0, 1.0, rng) for _ in range(300)}
        assert seen == set(range(6))

    def test_fixed_seed_reproducible(self, bench15):
        ag = small_agent(bench15)
        frame = np.zeros(ag.codec.frame_dim)
        a = ag.act_low(frame, 0, 0, 0.7, np.random.default_rng(5))
        b = ag.act_low(frame, 0, 0, 0.7, np.random.default_rng(5))
        assert a == b

    def test_act_proxy_goal_independent(self, bench15):
        ag = small_agent(bench15)
        frame = np.abs(np.random.default_rng(2).normal(size=ag.codec.frame_dim))
        for sg in range(bench15.n_labels):
            a0 = ag.act_proxy(frame, sg, 0.0, np.random.default_rng(0))
            a1 = ag.act_proxy(frame, sg, 0.0, np.random.default_rng(0))
            assert a0 == a1  # no goal argument exists to vary


class TestComputeU:
    def _args(self, ag, sg, goal_reached=False):
        rng = np.random.default_rng(3)
        sp = rng.normal(size=ag.codec.high_dim - ag.codec.n_labels)
        valid = np.ones(ag.space.n, dtype=bool)
        return sp, 0, sg, valid, goal_reached

    def test_term_zero_gives_continuation_value(self, bench15):
        ag = small_agent(bench15)
        force_term(ag, 0)
        sp, g, sg, valid, _ = self._args(ag, sg=2)
        q = ag.high_t.q_values(ag.codec.high_input(sp, g))[0]
        assert ag.compute_U(sp, g, sg, valid) == q[sg]

    def test_term_one_gives_replan_value(self, bench15):
        ag = small_agent(bench15)
        force_term(ag, 1)
        sp, g, sg, valid, _ = self._args(ag, sg=2)
        q = ag.high_t.q_values(ag.codec.high_input(sp, g))[0]
        assert ag.compute_U(sp, g, sg, valid) == q.max()

    def test_goal_state_gives_zero(self, bench15):
        ag = small_agent(bench15)
        sp, g, sg, valid, _ = self._args(ag, sg=1)
        assert ag.compute_U(sp, g, sg, valid, goal_reached=True) == 0.0

    def test_masked_replan_value(self, bench15):
        ag = small_agent(bench15)
        force_term(ag, 1)
        sp, g, sg, valid, _ = self._args(ag, sg=0)
        valid = np.zeros(ag.space.n, dtype=bool)
        valid[[1, ag.space.random_index]] = True
        q = ag.high_t.q_values(ag.codec.high_input(sp, g))[0]
        assert ag.compute_U(sp, g, sg, valid) == max(q[1], q[ag.space.random_index])


def make_transition(ag, rng, sg=0, g=0, a=0, goal=False, sub=False):
    """One hand-made `Batch` row: the high-net inputs at s and s' of two
    random histories, and the stored scalars and mask."""
    hd = ag.codec.history_len * ag.codec.frame_dim
    return SimpleNamespace(
        s_in=ag.codec.high_input(rng.normal(size=hd), g),
        sp_in=ag.codec.high_input(rng.normal(size=hd), g),
        g=g,
        sg=sg,
        a=a,
        r_e=1.0 if goal else 0.0,
        r_i=1.0 if sub else 0.0,
        goal_reached=goal,
        subgoal_reached=sub,
        valid_after=np.ones(ag.space.n, dtype=bool),
    )


def batch_of(rows):
    """Hand-made rows as a `Batch`, one column per field."""
    return Batch(**{k: np.array([getattr(r, k) for r in rows]) for k in vars(rows[0])})


def push_row(ag, rng, sg=0, g=0, a=0, goal=False, sub=False):
    """One hand-made replay row, its frames those of random poses."""
    poses = all_poses(ag.world)
    picks = rng.integers(len(poses), size=ag.codec.history_len + 1)
    frames = [ag.codec.frame_id(ag.world.observe(State(poses[i]))) for i in picks]
    ag.replay.push(frames=frames, g=g, sg=sg, a=a, r_e=1.0 if goal else 0.0,
                   r_i=1.0 if sub else 0.0, goal_reached=goal, subgoal_reached=sub,
                   valid_after=np.ones(ag.space.n, dtype=bool))


class TestUpdates:
    def test_goal_transition_target_is_one(self, bench15):
        ag = small_agent(bench15)
        rng = np.random.default_rng(0)
        batch = batch_of([make_transition(ag, rng, goal=True) for _ in range(4)])
        assert (ag.extrinsic_targets(batch, ag._u_batch(batch)[0]) == 1.0).all()

    def test_nongoal_term_zero_target_is_discounted_q(self, bench15):
        ag = small_agent(bench15)
        force_term(ag, 0)
        rng = np.random.default_rng(1)
        tr = make_transition(ag, rng, sg=2)
        q = ag.high_t.q_values(tr.sp_in)[0]
        batch = batch_of([tr])
        target = ag.extrinsic_targets(batch, ag._u_batch(batch)[0])[0]
        assert target == pytest.approx(ag.params.gamma * q[2], abs=1e-12)

    def test_high_and_low_share_targets(self, bench15, monkeypatch):
        # one round on a mixed batch: the low extrinsic targets are the high
        # targets' non-random rows (to 1e-12: a forward over the subset
        # differs in the last bits from the same rows of a full forward)
        ag = small_agent(bench15)
        rng = np.random.default_rng(2)
        for i in range(8):
            sg = ag.space.random_index if i % 2 else i % 3
            push_row(ag, rng, sg=sg, goal=i % 3 == 0)
        seen = {}

        def capture(step):
            def wrapped(net, opt, inputs, indices, targets):
                seen.setdefault(id(net), (np.copy(indices), np.copy(targets)))
                return step(net, opt, inputs, indices, targets)
            return wrapped

        for name in ("train_q_step", "train_step"):
            monkeypatch.setattr(agent_module, name, capture(getattr(agent_module, name)))
        ag._train_round()
        sgs, high_targets = seen[id(ag.high)]
        _, low_targets = seen[id(ag.low_ext)]
        keep = sgs != ag.space.random_index
        assert 0 < keep.sum() < len(keep) == ag.params.batch_size
        np.testing.assert_allclose(low_targets, high_targets[keep], rtol=0, atol=1e-12)

    def test_random_subgoal_excluded_from_low_updates(self, bench15):
        # a round over random-sub-goal transitions only trains the Q head
        ag = small_agent(bench15)
        rng = np.random.default_rng(3)
        for _ in range(4):
            push_row(ag, rng, sg=ag.space.random_index)
        nets = {"low_ext": ag.low_ext.flat, "low_int": ag.low_int.flat,
                "tW": ag.high.tW, "tb": ag.high.tb, "qW": ag.high.qW}
        before = {k: v.copy() for k, v in nets.items()}
        ag._train_round()
        for k in ("low_ext", "low_int", "tW", "tb"):
            assert (nets[k] == before[k]).all(), k
        assert (nets["qW"] != before["qW"]).any()

    def test_non_random_keeps_the_non_random_rows_in_order(self, bench15):
        ag = small_agent(bench15)
        rng = np.random.default_rng(8)
        ri = ag.space.random_index
        trs = [make_transition(ag, rng, sg=sg, a=i)
               for i, sg in enumerate([ri, 0, 2, ri, 1, ri, 2])]
        b = batch_of(trs)
        assert len(b) == len(trs)
        low = ag._non_random(b)
        kept = [t for t in trs if t.sg != ri]
        assert len(low) == len(kept)
        assert low.a.tolist() == [t.a for t in kept]
        assert (low.s_in == np.stack([t.s_in for t in kept])).all()
        assert (low.sp_in == np.stack([t.sp_in for t in kept])).all()

    def test_non_random_is_the_batch_without_a_random_subgoal(self, bench15):
        params = default_params(100, min_buffer=64, batch_size=16, hidden=(16,))
        ag = HiemAgent(bench15, AnonymousOptionSpace(3), params, 0)
        rng = np.random.default_rng(9)
        b = batch_of([make_transition(ag, rng, sg=i) for i in range(3)])
        assert ag._non_random(b) is b

    def test_round_builds_the_batch_once(self, bench15, monkeypatch):
        ag = small_agent(bench15)
        rng = np.random.default_rng(10)
        for i in range(4):
            push_row(ag, rng, sg=i % 3)
        calls = []
        build = HiemAgent._batch_arrays
        monkeypatch.setattr(HiemAgent, "_batch_arrays",
                            lambda self, rows: calls.append(1) or build(self, rows))
        ag._train_round()
        assert len(calls) == 1

    def test_round_computes_u_once_per_side(self, bench15, monkeypatch):
        # the high update's U on the whole batch, then one U of the
        # non-random subset that the low extrinsic and termination
        # updates share
        ag = small_agent(bench15)
        assert ag.params.force_alpha is None and not ag.params.force_term_zero
        rng = np.random.default_rng(11)
        for i in range(4):
            push_row(ag, rng, sg=i % 3)
        rows = []
        u_batch = HiemAgent._u_batch
        monkeypatch.setattr(HiemAgent, "_u_batch",
                            lambda self, b: rows.append(len(b)) or u_batch(self, b))
        ag._train_round()
        assert rows == [ag.params.batch_size, ag.params.batch_size]

    def test_intrinsic_target_uses_max_and_zeroes_on_achievement(self, bench15):
        ag = small_agent(bench15)
        rng = np.random.default_rng(4)
        reached = make_transition(ag, rng, sg=1, sub=True)
        # loss on a single achieved transition regresses toward exactly 1
        hd = ag.codec.history_len * ag.codec.frame_dim
        before = ag.low_int.forward(
            ag.codec.low_int_input(reached.s_in[hd - ag.codec.frame_dim:hd], 1)
        )[0, reached.a]
        loss = ag.update_low_intrinsic(batch_of([reached]))
        assert loss == pytest.approx((before - 1.0) ** 2)

    def test_term_update_sign(self, bench15):
        # negative advantage -> term strictly up; positive -> strictly down
        rng_master = np.random.default_rng(5)
        for trial in range(10):
            ag = small_agent(bench15, seed=trial, optimizer="sgd", lr=1e-3)
            rng = np.random.default_rng(trial)
            tr = make_transition(ag, rng, sg=1)
            x = tr.sp_in
            q = ag.high_t.q_values(x)[0]
            adv = q[1] - q.max()
            before = ag.high.term_probs(x)[0, 1]
            batch = batch_of([tr])
            ag.update_term(batch, ag._u_batch(batch))
            after = ag.high.term_probs(x)[0, 1]
            if adv < 0:
                assert after > before
            elif adv > 0:
                assert after < before

    def test_zero_advantage_no_change(self, bench15):
        ag = small_agent(bench15, optimizer="sgd")
        rng = np.random.default_rng(6)
        tr = make_transition(ag, rng, sg=1)
        # make all q outputs identical so advantage is exactly zero
        ag.high_t.qW[...] = 0.0
        ag.high_t.qb[...] = 0.5
        before = [p.copy() for p in ag.high.params()]
        batch = batch_of([tr])
        ag.update_term(batch, ag._u_batch(batch))
        for b, a in zip(before, ag.high.params()):
            assert (b == a).all()

    def test_drift_alarm_fires(self, bench15):
        ag = small_agent(bench15, alarm_warmup=0)
        ag.train_rounds = 1
        rng = np.random.default_rng(7)
        tr = make_transition(ag, rng, sg=1)
        ag.high_t.qb[...] = 50.0  # absurd bootstrap values
        ag.high_t.qW[...] = 0.0
        with pytest.raises(ValueDriftError):
            ag.update_high(batch_of([tr]))


class TestRunOption:
    def _setup(self, ag, world, x=1, heading=Heading.EAST, goal="amp"):
        g = world.label_names.index(goal)
        spec = EpisodeSpec(start=AgentPose(x, 1, heading), goal_label=g)
        state = world.reset(spec)
        history = ag.codec.new_history()
        obs = world.observe(state)
        history.append(ag.codec.obs_vec(obs))
        return state, obs, history, g

    def test_step_cap_when_term_silent_and_subgoal_far(self):
        world = corridor_world(goal_x=7)
        # corridor is 7 long; face away so the sub-goal stays unreachable
        ag = small_agent(world)
        force_term(ag, 0)
        state, obs, history, g = self._setup(ag, world, x=1, heading=Heading.WEST)
        trace, *_ = ag.run_option(
            state, obs, history, g, sg=0, mode="eval", alpha=0.0, eps_low=0.0,
            rng=np.random.default_rng(0), atomic_so_far=0,
        )
        assert trace.length == ag.params.max_low_level == 25
        assert trace.stop_reason == STOP_STEP_CAP

    def test_subgoal_achieved_stops_early(self):
        world = corridor_world(goal_x=7)
        ag = small_agent(world)
        force_term(ag, 0)
        # 3 cells out of goal range facing the object: forward moves reach it
        ag.low_ext.W[-1][...] = 0.0
        ag.low_ext.b[-1][...] = 0.0
        ag.low_ext.b[-1][int(Action.MOVE_FORWARD)] = 1.0
        state, obs, history, g = self._setup(ag, world, x=2, heading=Heading.EAST)
        trace, *_ = ag.run_option(
            state, obs, history, g, sg=g, mode="eval", alpha=0.0, eps_low=0.0,
            rng=np.random.default_rng(0), atomic_so_far=0,
        )
        assert trace.stop_reason in (STOP_SUBGOAL, STOP_GOAL)
        assert trace.length == 3
        assert trace.transitions[-1].subgoal_reached

    def test_goal_reached_mid_option_flags_reward(self):
        world = corridor_world(goal_x=7)
        ag = small_agent(world)
        force_term(ag, 0)
        ag.low_ext.W[-1][...] = 0.0
        ag.low_ext.b[-1][...] = 0.0
        ag.low_ext.b[-1][int(Action.MOVE_FORWARD)] = 1.0
        state, obs, history, g = self._setup(ag, world, x=2, heading=Heading.EAST)
        trace, _, _, _, done, success = ag.run_option(
            state, obs, history, g, sg=g, mode="eval", alpha=0.0, eps_low=0.0,
            rng=np.random.default_rng(0), atomic_so_far=0,
        )
        assert trace.stop_reason == STOP_GOAL
        assert done and success
        assert trace.transitions[-1].r_e == 1.0

    def test_saturated_term_stops_after_one_step(self):
        world = corridor_world(goal_x=7)
        ag = small_agent(world)
        force_term(ag, 1)
        state, obs, history, g = self._setup(ag, world, x=1, heading=Heading.WEST)
        trace, *_ = ag.run_option(
            state, obs, history, g, sg=0, mode="eval", alpha=0.0, eps_low=0.0,
            rng=np.random.default_rng(0), atomic_so_far=0,
        )
        assert trace.length == 1
        assert trace.stop_reason == "terminated"

    def test_consecutive_transitions_share_one_history(self):
        world = corridor_world(goal_x=7)
        ag = small_agent(world)
        force_term(ag, 0)
        state, obs, history, g = self._setup(ag, world, x=1, heading=Heading.WEST)
        ids = ag.codec.new_frame_ids()
        ids.append(ag.codec.frame_id(obs))
        trace, *_ = ag.run_option(
            state, obs, history, g, sg=0, mode="train", alpha=0.0, eps_low=1.0,
            rng=np.random.default_rng(0), atomic_so_far=0, ids=ids,
        )
        trs = trace.transitions
        assert len(trs) == ag.params.max_low_level
        # replay holds one row per step, and its rows give the high-net
        # inputs of the histories walked; consecutive rows share frame ids
        stored = ag._batch_arrays(ag.replay.columns())
        spec = EpisodeSpec(start=AgentPose(1, 1, Heading.WEST), goal_label=g)
        walked = walked_inputs(ag, spec, [tr.a for tr in trs])
        assert np.array_equal(stored.s_in, walked.s_in)
        assert np.array_equal(stored.sp_in, walked.sp_in)
        assert stored.a.tolist() == [tr.a for tr in trs]
        frames = ag.replay.columns()["frames"]
        assert (frames[1:, :-1] == frames[:-1, 1:]).all()
        assert np.array_equal(stored.s_in[1:], stored.sp_in[:-1])


def walked_inputs(ag, spec, actions):
    """Walk `actions` by hand from the spec's start.  Returns, one row per
    step, `s_in` and `sp_in`, the codec's `high_input` of the stacked
    history before and after the step, and `valid_after`, the mask of
    sub-goals proposable after it."""
    world, codec, g = ag.world, ag.codec, spec.goal_label
    state = world.reset(spec)
    history = codec.new_history()
    history.append(codec.obs_vec(world.observe(state)))
    before, after, valid = [], [], []
    for a in actions:
        before.append(codec.high_input(codec.stack_history(history), g))
        state, _ = world.step(state, a)
        obs = world.observe(state)
        history.append(codec.obs_vec(obs))
        after.append(codec.high_input(codec.stack_history(history), g))
        valid.append(ag.space.valid_mask(obs.visible_labels))
    return SimpleNamespace(s_in=np.stack(before), sp_in=np.stack(after),
                           valid_after=np.stack(valid))


class TestReplayStore:
    """Replay keeps frame ids and scalars; a sample builds the high-net
    inputs from the ids."""

    def _train_episode(self, bench15):
        # rounds train from step 64 on, while the episode still pushes
        ag = small_agent(bench15)
        spec = EpisodeSpec(start=AgentPose(7, 6, Heading.EAST),
                           goal_label=bench15.label_names.index("tv"),
                           max_atomic_steps=120)
        rec = ag.run_episode(spec, mode="train", episode_idx=0)
        return ag, spec, [t for o in rec.options for t in o.transitions], rec

    def test_sample_equals_the_stacked_histories_column_by_column(self, bench15):
        ag, spec, trs, _ = self._train_episode(bench15)
        assert len(ag.replay) == len(trs) > 50
        walked = walked_inputs(ag, spec, [t.a for t in trs])
        ref = Batch(**vars(walked), **{
            f.name: np.array([getattr(t, f.name) for t in trs])
            for f in dataclasses.fields(Transition)})
        idx = np.random.default_rng(4).integers(0, len(trs), size=64)
        got = ag._batch_arrays(ag.replay.sample(64, np.random.default_rng(4)))
        assert sorted(vars(got)) == sorted(vars(ref))
        for name, col in vars(ref).items():
            want = col[idx]
            assert getattr(got, name).dtype == want.dtype, name
            assert np.array_equal(getattr(got, name), want), name

    def test_train_records_hold_no_arrays(self, bench15):
        _, _, trs, rec = self._train_episode(bench15)
        assert len(trs) == rec.atomic_steps > 50
        values = [*vars(rec).values()]
        for o in rec.options:
            values += [*vars(o).values(), *o.path]
            for t in o.transitions:
                values += vars(t).values()
        assert not any(isinstance(v, np.ndarray) for v in values)

    def test_store_holds_no_frame_vectors(self, bench15):
        ag, _, trs, _ = self._train_episode(bench15)
        cols = ag.replay.columns()
        n, L = len(trs), ag.params.history_len
        assert {k: (c.dtype, c.shape) for k, c in cols.items()} == {
            "frames": (np.int64, (n, L + 1)),
            "g": (np.int64, (n,)), "sg": (np.int64, (n,)), "a": (np.int64, (n,)),
            "r_e": (np.float64, (n,)), "r_i": (np.float64, (n,)),
            "goal_reached": (np.bool_, (n,)), "subgoal_reached": (np.bool_, (n,)),
            "valid_after": (np.bool_, (n, ag.space.n)),
        }
        assert not any(c.dtype.kind == "f" and c.ndim > 1 for c in cols.values())
        # 8 * (5 ids + 5 scalars) + 2 flags + 7 mask bytes on bench15
        assert sum(c.nbytes for c in cols.values()) == n * 89


class TestRunEpisode:
    def test_start_at_goal_zero_steps(self):
        world = corridor_world(goal_x=3)
        ag = small_agent(world)
        spec = EpisodeSpec(start=AgentPose(2, 1, Heading.EAST), goal_label=0)
        rec = ag.run_episode(spec, mode="eval", rng=np.random.default_rng(0))
        assert rec.success and rec.atomic_steps == 0 and rec.options == []

    def test_unreachable_goal_fails_at_exact_cap(self):
        text = """\
[map]
#########
#...#...#
#...#.a.#
#...#...#
#########
[legend]
a = amp
"""
        world = parse_map_text(text)
        ag = small_agent(world)
        spec = EpisodeSpec(
            start=AgentPose(1, 1, Heading.NORTH), goal_label=0, max_atomic_steps=60
        )
        rec = ag.run_episode(spec, mode="eval", rng=np.random.default_rng(0))
        assert not rec.success
        assert rec.atomic_steps == 60
        assert rec.options[-1].stop_reason == STOP_EPISODE_CAP

    def test_rechosen_achieved_subgoal_stops_at_episode_cap(self):
        text = """\
[map]
#########
#a.....b#
#########
[legend]
a = amp
b = box
[params]
goal_distance = 1
"""
        world = parse_map_text(text)
        amp, box = world.label_names.index("amp"), world.label_names.index("box")
        ag = small_agent(world)
        force_term(ag, 0)
        calls = []

        def propose_amp(*args):
            calls.append(1)
            assert len(calls) <= 100, "the episode ran past its cap"
            return amp

        # facing the amp, strafing left bumps the wall south of the agent:
        # every option ends after one step with its sub-goal achieved
        ag.propose_subgoal = propose_amp
        ag.act_low = lambda *args: int(Action.MOVE_LEFT)
        spec = EpisodeSpec(
            start=AgentPose(2, 1, Heading.WEST), goal_label=box, max_atomic_steps=30
        )
        rec = ag.run_episode(spec, mode="eval", rng=np.random.default_rng(0))
        assert not rec.success
        assert rec.atomic_steps == 30 and len(rec.options) == 30
        assert [o.stop_reason for o in rec.options] == [STOP_SUBGOAL] * 29 + [STOP_EPISODE_CAP]
        assert all(o.path == [(2, 1)] for o in rec.options)

    def test_paths_share_one_tuple_per_cell(self, bench15):
        ag = small_agent(bench15)
        spec = EpisodeSpec(
            start=AgentPose(7, 6, Heading.EAST),
            goal_label=bench15.label_names.index("tv"),
            max_atomic_steps=80,
        )
        rec = ag.run_episode(spec, mode="eval", rng=np.random.default_rng(11))
        path = [p for o in rec.options for p in o.path]
        assert len(path) == rec.atomic_steps > 0
        assert all(p is bench15.cell(AgentPose(*p, Heading.NORTH)) for p in path)
        s = State(spec.start)
        for o in rec.options:
            for t, p in zip(o.transitions, o.path):
                s, _ = bench15.step(s, Action(t.a))
                assert p == (s.pose.x, s.pose.y)

    def test_eval_deterministic_same_seed(self, bench15):
        ag = small_agent(bench15)
        spec = EpisodeSpec(
            start=AgentPose(7, 6, Heading.EAST),
            goal_label=bench15.label_names.index("tv"),
            max_atomic_steps=80,
        )
        recs = []
        for _ in range(2):
            recs.append(
                ag.run_episode(spec, mode="eval", rng=np.random.default_rng(11))
            )
        a, b = recs
        assert a.success == b.success and a.atomic_steps == b.atomic_steps
        assert [(t.sg, t.behavior, t.length, t.stop_reason, t.path) for t in a.options] \
            == [(t.sg, t.behavior, t.length, t.stop_reason, t.path) for t in b.options]

    def test_train_mode_transitions_carry_context(self):
        world = corridor_world()
        ag = small_agent(world, force_alpha=1.0)
        spec = EpisodeSpec(start=AgentPose(1, 1, Heading.EAST), goal_label=0,
                           max_atomic_steps=40)
        ag.run_episode(spec, mode="train", episode_idx=0)
        rows = ag.replay.columns()
        assert len(ag.replay) > 0
        assert (rows["r_e"] == np.where(rows["goal_reached"], 1.0, 0.0)).all()
        assert ((0 <= rows["sg"]) & (rows["sg"] < ag.space.n)).all()
        assert (rows["g"] == 0).all()
        assert rows["valid_after"][:, ag.space.random_index].all()


def reference_eval(ag, spec, rng):
    """An eval query as it ran before eval queries kept a memo: stack the
    history and run each net forward at every step.  Returns the query's
    actions, path, (sub-goal, behaviour, stop reason) per option and
    success."""
    world, codec, p = ag.world, ag.codec, ag.params
    g = spec.goal_label
    state = world.reset(spec)
    history = codec.new_history()
    obs = world.observe(state)
    history.append(codec.obs_vec(obs))
    max_atomic = min(p.max_atomic, spec.max_atomic_steps)
    alpha = 0.0 if p.force_alpha is None else p.force_alpha
    actions, path, options = [], [], []
    done = success = world.is_goal_state(state, g)
    while not done:
        q = ag.high.q_values(codec.high_input(codec.stack_history(history), g))[0]
        sg = int(np.argmax(np.where(ag.space.valid_mask(obs.visible_labels), q, -np.inf)))
        if sg == ag.space.random_index:
            behavior = "random"
        else:
            behavior = "proxy" if ag.space.has_intrinsic and alpha >= 1 else "low"
        steps, stop = 0, None
        while stop is None:
            frame = history[-1]
            if behavior == "random":
                a = int(rng.integers(N_ACTIONS))
            elif behavior == "proxy":
                a = int(np.argmax(ag.low_int.forward(codec.low_int_input(frame, sg))[0]))
            else:
                a = int(np.argmax(ag.low_ext.forward(codec.low_ext_input(frame, g, sg))[0]))
            state, _ = world.step(state, a)
            obs = world.observe(state)
            history.append(codec.obs_vec(obs))
            actions.append(a)
            path.append(world.cell(state.pose))
            steps += 1
            if world.is_goal_state(state, g):
                stop, done, success = STOP_GOAL, True, True
            elif len(actions) >= max_atomic:
                stop, done = STOP_EPISODE_CAP, True
            elif ag.space.is_achieved(world, state, sg):
                stop = STOP_SUBGOAL
            elif steps >= p.max_low_level:
                stop = STOP_STEP_CAP
            elif sg != ag.space.random_index and not p.force_term_zero:
                x = codec.high_input(codec.stack_history(history), g)
                tp = ag.high.term_probs(x)[0, sg]
                if (tp > 0.5) if p.term_threshold_eval else (rng.random() < tp):
                    stop = STOP_TERMINATED
        options.append((sg, behavior, stop))
    return actions, path, options, success


def answer(ag, spec, seed):
    """`reference_eval`'s tuple for the agent's own eval query."""
    rec = ag.run_episode(spec, mode="eval", rng=np.random.default_rng(seed))
    return ([t.a for o in rec.options for t in o.transitions],
            [c for o in rec.options for c in o.path],
            [(o.sg, o.behavior, o.stop_reason) for o in rec.options],
            rec.success)


def eval_specs(world, n=30):
    return [spec for spec, _ in sample_episode_specs(world, n, seed=9, max_atomic_steps=120)]


class TestEvalMemo:
    """Eval queries read each net output from a per-query memo."""

    @pytest.mark.parametrize("variant", [
        dict(term_threshold_eval=True),
        dict(),
        dict(force_alpha=1.0),
        dict(force_term_zero=True),
        "oc",
    ])
    def test_memo_eval_equals_reference_loop(self, bench15, variant):
        results = []
        for seed in range(3):
            if variant == "oc":
                params = default_params(100, hidden=(16,))
                ag = HiemAgent(bench15, AnonymousOptionSpace(4), params, seed)
            else:
                ag = small_agent(bench15, seed=seed, **variant)
            for i, spec in enumerate(eval_specs(bench15)):
                got = answer(ag, spec, i)
                assert got == reference_eval(ag, spec, np.random.default_rng(i)), (seed, i)
                results.append(got)
        # the queries ran the nets, not only the random sub-goal
        options = [o for _, _, opts, _ in results for o in opts]
        behaviors = {b for _, b, _ in options}
        assert behaviors & {"low", "proxy"}
        if variant in ("oc", dict(term_threshold_eval=True), dict()):
            assert any(stop == STOP_TERMINATED for _, _, stop in options)

    def test_new_weights_give_new_answers(self, bench15):
        specs = eval_specs(bench15, 20)
        ag, other = small_agent(bench15, seed=0), small_agent(bench15, seed=1)
        before = [answer(ag, spec, i) for i, spec in enumerate(specs)]
        ag.set_state(other.get_state())
        after = [answer(ag, spec, i) for i, spec in enumerate(specs)]
        assert after == [answer(other, spec, i) for i, spec in enumerate(specs)]
        assert after != before

    def test_memo_holds_at_most_one_entry_per_step(self, bench15, monkeypatch):
        memos = []

        class Recording(agent_module.FrameMemo):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(agent_module, "FrameMemo", Recording)
        ag = small_agent(bench15, seed=2)
        _, _, records = evaluate(ag, bench15, 30, seed=9, max_atomic_steps=120)
        assert len(memos) == len(records)
        for memo, rec in zip(memos, records):
            high = [k for k in memo.entries if k[0] == "high"]
            assert len(high) <= rec.atomic_steps
            assert len(memo.entries) - len(high) <= rec.atomic_steps
        assert any(len(m.entries) > 0 for m in memos)

    def test_eval_records_hold_no_arrays(self, bench15):
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return 1
            if dataclasses.is_dataclass(obj):
                obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
            if isinstance(obj, (list, tuple)):
                return sum(arrays(x) for x in obj)
            return 0

        ag = small_agent(bench15, seed=2)
        _, _, records = evaluate(ag, bench15, 30, seed=9, max_atomic_steps=120)
        transitions = [t for r in records for o in r.options for t in o.transitions]
        assert len(transitions) == sum(r.atomic_steps for r in records) > 0
        assert arrays(records) == 0


class TestValueFunctionIdentity:
    def test_hierarchy_value_decomposition_on_fixed_greedy_policy(self):
        """With a fixed deterministic low-level policy, the high-level value
        of (s, sg) equals the policy-expanded action value at s: the sub-goal
        value decomposes exactly into sum_a pi(a|s) * Q_low(s, a)."""
        world = corridor_world(goal_x=7)
        g = 0
        pred = lambda s: world.is_goal_state(s, g)
        poses = [
            AgentPose(x, 1, h)
            for x in range(1, 8)
            for h in Heading
            if world.passable(x, 1)
        ]

        def greedy_action(pose):
            path = world.shortest_path_actions(pose, pred)
            return path[0] if path else None

        gamma = 0.99
        # DP for Q_low under the fixed greedy policy
        q_low = {}
        for _ in range(200):
            new = {}
            for pose in poses:
                for a in Action:
                    s2, _ = world.step(State(pose=pose), a)
                    if pred(s2):
                        new[(pose, a)] = 1.0
                    else:
                        nxt_a = greedy_action(s2.pose)
                        cont = q_low.get((s2.pose, nxt_a), 0.0)
                        new[(pose, a)] = gamma * cont
            q_low = new

        def rollout_value(pose):
            total, disc, s = 0.0, 1.0, State(pose=pose)
            for _ in range(500):
                a = greedy_action(s.pose)
                s, _ = world.step(s, a)
                if pred(s):
                    return total + disc
                disc *= gamma
            return total

        for pose in poses:
            if pred(State(pose=pose)):
                continue
            a = greedy_action(pose)
            # pi is an indicator, so the sum over actions collapses
            lhs = q_low[(pose, a)]
            rhs = rollout_value(pose)
            assert abs(lhs - rhs) < 1e-6


class TestParamsValidation:
    """Counts that the training loop divides by, stacks or sizes nets with
    must be at least 1; below that, training used to fail mid-run (a
    ZeroDivisionError for target_sync or train_every, np.stack of an empty
    batch) or build nets that see no frame (history_len)."""

    COUNTS = ("target_sync", "train_every", "batch_size", "history_len", "max_low_level")

    @pytest.mark.parametrize("name", COUNTS)
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_are_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            HiemParams(**{name: value})

    @pytest.mark.parametrize("name", COUNTS)
    def test_config_override_below_one_is_rejected(self, name):
        cfg = load_config(None, [f"params.{name}=0"])
        with pytest.raises(ValueError, match=name):
            cfg.hiem_params()

    def test_one_is_accepted(self):
        p = HiemParams(**{name: 1 for name in self.COUNTS})
        assert all(getattr(p, name) == 1 for name in self.COUNTS)
