import numpy as np
import pytest

from hiem.agent import (
    AnonymousOptionSpace,
    HiemAgent,
    LabelSubgoalSpace,
    ValueDriftError,
    default_params,
)
from hiem.baselines import (
    METHODS,
    FlatDqnAgent,
    MethodConfig,
    OracleAgent,
    RandomAgent,
    build_agent,
    oracle_policy,
    random_policy,
)
from hiem.gridworld import AgentPose, ConfigError, EpisodeSpec, Heading, N_ACTIONS, State
from hiem.mapfile import parse_map_text
from hiem.metrics import evaluate, sample_episode_specs


class TestMethodConfig:
    def test_unknown_method_faults(self):
        with pytest.raises(ConfigError):
            MethodConfig("a3c")

    def test_trainable_flags(self):
        assert not MethodConfig("oracle").trainable
        assert not MethodConfig("random").trainable
        for m in set(METHODS) - {"oracle", "random"}:
            assert MethodConfig(m).trainable


class TestOracle:
    def test_matches_bfs_length_everywhere(self, bench15):
        params = default_params(1)
        agent = OracleAgent(bench15, params)
        for spec, minimal in sample_episode_specs(bench15, 40, seed=3):
            rec = agent.run_episode(spec)
            assert rec.success
            assert rec.atomic_steps == minimal

    def test_perfect_metrics(self, bench15):
        agent = OracleAgent(bench15, default_params(1))
        report, results, _ = evaluate(agent, bench15, 50, seed=9)
        assert report.sr == 1.0
        assert report.spl == 1.0
        assert report.avg_steps == report.min_steps

    def test_unreachable_goal_faults(self):
        text = """\
[map]
#######
#.#a..#
#.#####
#.....#
#######
[legend]
a = amp
"""
        world = parse_map_text(text)
        agent = OracleAgent(world, default_params(1))
        spec = EpisodeSpec(start=AgentPose(1, 1, Heading.EAST), goal_label=0)
        with pytest.raises(ConfigError):
            agent.run_episode(spec)

    def test_policy_returns_none_at_goal(self, open7):
        g = 0
        state = open7.reset(
            EpisodeSpec(start=AgentPose(3, 3, Heading.EAST), goal_label=g)
        )
        assert open7.is_goal_state(state, g)
        assert oracle_policy(open7, state, g) is None

    def test_path_replays_bfs_with_shared_cells(self, bench15):
        agent = OracleAgent(bench15, default_params(1))
        for spec, minimal in sample_episode_specs(bench15, 10, seed=4):
            rec = agent.run_episode(spec)
            path = rec.options[0].path if rec.options else []
            pred = lambda s: bench15.is_goal_state(s, spec.goal_label)
            actions = bench15.shortest_path_actions(spec.start, pred)
            assert len(actions) == len(path) == minimal
            s = State(spec.start)
            for a, p in zip(actions, path):
                s, _ = bench15.step(s, a)
                assert p == (s.pose.x, s.pose.y)
                assert p is bench15.cell(s.pose)


class TestRandom:
    def test_policy_uniform_chi_square(self):
        rng = np.random.default_rng(0)
        n = 60_000
        counts = np.bincount(
            [int(random_policy(rng)) for _ in range(n)], minlength=N_ACTIONS
        )
        expect = n / N_ACTIONS
        sigma = np.sqrt(n * (1 / N_ACTIONS) * (1 - 1 / N_ACTIONS))
        assert (np.abs(counts - expect) < 4 * sigma).all()

    def test_seeded_episode_reproducible(self, bench15):
        agent = RandomAgent(bench15, default_params(1))
        spec = EpisodeSpec(
            start=AgentPose(7, 6, Heading.NORTH), goal_label=0, max_atomic_steps=100
        )
        a = agent.run_episode(spec, rng=np.random.default_rng(4))
        b = agent.run_episode(spec, rng=np.random.default_rng(4))
        assert a.success == b.success
        assert a.atomic_steps == b.atomic_steps
        assert a.options[0].path == b.options[0].path

    def test_path_replays_draws_with_shared_cells(self, bench15):
        agent = RandomAgent(bench15, default_params(1))
        spec = EpisodeSpec(
            start=AgentPose(7, 6, Heading.NORTH), goal_label=0, max_atomic_steps=100
        )
        rec = agent.run_episode(spec, rng=np.random.default_rng(4))
        rng = np.random.default_rng(4)
        s = State(spec.start)
        for p in rec.options[0].path:
            s, _ = bench15.step(s, random_policy(rng))
            assert p == (s.pose.x, s.pose.y)
            assert p is bench15.cell(s.pose)

    def test_missing_rng_faults(self, bench15):
        agent = RandomAgent(bench15, default_params(1))
        spec = EpisodeSpec(start=AgentPose(7, 6, Heading.NORTH), goal_label=0)
        with pytest.raises(ValueError):
            agent.run_episode(spec)

    def test_never_exceeds_cap(self, bench15):
        agent = RandomAgent(bench15, default_params(1))
        rng = np.random.default_rng(6)
        spec = EpisodeSpec(
            start=AgentPose(1, 1, Heading.SOUTH), goal_label=0, max_atomic_steps=30
        )
        for _ in range(5):
            rec = agent.run_episode(spec, rng=rng)
            assert rec.atomic_steps <= 30


class TestFlatDqn:
    def test_toy_convergence_matches_bfs(self):
        text = """\
[map]
#######
#.....#
#..a..#
#.....#
#######
[legend]
a = amp
[params]
goal_distance = 1
"""
        world = parse_map_text(text)
        params = default_params(
            600, hidden=(32,), min_buffer=200, batch_size=32, target_sync=1000,
            lr=3e-4, train_every=2,
        )
        agent = FlatDqnAgent(world, params, seed=0)
        specs = sample_episode_specs(world, 600, seed=1, max_atomic_steps=40)
        for i, (spec, _) in enumerate(specs):
            agent.run_episode(spec, mode="train", episode_idx=i)
        report, results, _ = evaluate(agent, world, 20, seed=2, max_atomic_steps=40)
        assert report.sr >= 0.9
        # successful paths should be near-minimal on this tiny open room
        for r in results:
            if r.success and r.minimal_steps > 0:
                assert r.steps <= r.minimal_steps + 6

    def test_transitions_share_histories_and_paths_share_cells(self, bench15):
        params = default_params(10, hidden=(8,), min_buffer=8, batch_size=4)
        agent = FlatDqnAgent(bench15, params, seed=3)
        spec = EpisodeSpec(
            start=AgentPose(1, 1, Heading.EAST), goal_label=0, max_atomic_steps=30
        )
        rec = agent.run_episode(spec, mode="train", episode_idx=0)
        rows = agent.replay.columns()
        assert len(rows["a"]) == rec.atomic_steps == len(rec.options[0].path)
        # consecutive rows share frame ids: s' of a step is s of the next
        assert (rows["frames"][1:, :-1] == rows["frames"][:-1, 1:]).all()
        assert sorted(rows) == ["a", "frames", "g", "goal_reached", "r_e"]
        batch = agent._batch_arrays(rows)
        codec = agent.codec
        s = State(spec.start)
        history = codec.new_history()
        history.append(codec.obs_vec(bench15.observe(s)))
        high_input = lambda: codec.high_input(codec.stack_history(history), spec.goal_label)
        for i, (a, p) in enumerate(zip(rows["a"], rec.options[0].path)):
            assert np.array_equal(batch.s_in[i], high_input())
            s, _ = bench15.step(s, a)
            history.append(codec.obs_vec(bench15.observe(s)))
            assert np.array_equal(batch.sp_in[i], high_input())
            assert p == (s.pose.x, s.pose.y)
            assert p is bench15.cell(s.pose)
        assert (rows["r_e"] == rows["goal_reached"]).all()
        assert rows["goal_reached"].tolist() == [False] * (len(rows["a"]) - 1) + [rec.success]

    def test_value_alarm_fires_past_the_warmup(self, bench15):
        params = default_params(10, hidden=(8,), min_buffer=1_000, batch_size=4,
                                alarm_warmup=3)
        agent = FlatDqnAgent(bench15, params, seed=3)
        spec = EpisodeSpec(
            start=AgentPose(1, 1, Heading.EAST), goal_label=0, max_atomic_steps=30
        )
        agent.run_episode(spec, mode="train", episode_idx=0)
        assert agent.train_rounds == 0 and len(agent.replay) > 0
        # a target net whose every value is 50: targets of 0.99 * 50 where
        # the goal is not reached, far over the 1.5 ceiling
        agent.net_t.W[-1][...] = 0.0
        agent.net_t.b[-1][...] = 50.0
        for _ in range(4):  # rounds 0-3 are the warm-up
            agent._train_round()
        with pytest.raises(ValueDriftError, match="at train round 4"):
            agent._train_round()
        assert agent.train_rounds == 4

    def test_checkpoint_roundtrip_bitwise(self, bench15):
        params = default_params(10, hidden=(8,), min_buffer=8, batch_size=4)
        a = FlatDqnAgent(bench15, params, seed=3)
        spec = EpisodeSpec(
            start=AgentPose(1, 1, Heading.EAST), goal_label=0, max_atomic_steps=30
        )
        a.run_episode(spec, mode="train", episode_idx=0)
        b = FlatDqnAgent(bench15, params, seed=99)
        b.set_state(a.get_state())
        x = np.random.default_rng(0).normal(size=(2, a.codec.high_dim))
        assert (a.net.forward(x) == b.net.forward(x)).all()
        assert (a.net_t.forward(x) == b.net_t.forward(x)).all()
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestBuildAgent:
    def test_method_to_agent_classes(self, bench15):
        params = default_params(10)
        assert isinstance(build_agent(bench15, MethodConfig("oracle"), params, 0),
                          OracleAgent)
        assert isinstance(build_agent(bench15, MethodConfig("random"), params, 0),
                          RandomAgent)
        assert isinstance(build_agent(bench15, MethodConfig("dqn"), params, 0),
                          FlatDqnAgent)
        for m in ("oc", "hdqn", "hiem", "hiem_proxy", "hiem_low", "hiem_term"):
            assert isinstance(build_agent(bench15, MethodConfig(m), params, 0),
                              HiemAgent)

    def test_ablation_overrides(self, bench15):
        params = default_params(10)
        hdqn = build_agent(bench15, MethodConfig("hdqn"), params, 0)
        assert hdqn.params.force_term_zero and hdqn.params.force_alpha == 1.0
        proxy = build_agent(bench15, MethodConfig("hiem_proxy"), params, 0)
        assert proxy.params.force_alpha == 0.0 and not proxy.params.force_term_zero
        low = build_agent(bench15, MethodConfig("hiem_low"), params, 0)
        assert low.params.force_alpha == 1.0 and not low.params.force_term_zero
        term = build_agent(bench15, MethodConfig("hiem_term"), params, 0)
        assert term.params.force_term_zero and term.params.force_alpha is None
        full = build_agent(bench15, MethodConfig("hiem"), params, 0)
        assert not full.params.force_term_zero and full.params.force_alpha is None

    def test_oc_uses_anonymous_options(self, bench15):
        agent = build_agent(
            bench15, MethodConfig("oc", option_count=5), default_params(10), 0
        )
        assert isinstance(agent.space, AnonymousOptionSpace)
        assert agent.space.n == 5
        assert not agent.space.has_intrinsic
        # every option always valid, never achieved
        mask = agent.space.valid_mask(frozenset())
        assert mask.all()

    def test_hdqn_is_forced_hiem_bitwise(self, bench15):
        """The hdqn method must coincide exactly with hiem run under the same
        seed with termination clamped to zero and behavior forced to the
        extrinsic low-level policy."""
        params = default_params(
            20, hidden=(12,), min_buffer=32, batch_size=8, train_every=2
        )
        a = build_agent(bench15, MethodConfig("hdqn"), params, seed=7)
        b = build_agent(
            bench15,
            MethodConfig("hiem", force_term_zero=True, force_alpha=1.0),
            params,
            seed=7,
        )
        specs = sample_episode_specs(bench15, 12, seed=5, max_atomic_steps=60)
        for i, (spec, _) in enumerate(specs):
            ra = a.run_episode(spec, mode="train", episode_idx=i)
            rb = b.run_episode(spec, mode="train", episode_idx=i)
            assert ra.atomic_steps == rb.atomic_steps
            assert ra.success == rb.success
        x = np.random.default_rng(1).normal(size=(3, a.codec.high_dim))
        assert (a.high.q_values(x) == b.high.q_values(x)).all()
        xe = np.random.default_rng(2).normal(size=(3, a.codec.low_ext_dim))
        assert (a.low_ext.forward(xe) == b.low_ext.forward(xe)).all()


class TestOcBehavior:
    def test_options_run_without_achievement(self, bench15):
        params = default_params(10, hidden=(8,), min_buffer=16, batch_size=4)
        agent = build_agent(bench15, MethodConfig("oc"), params, seed=1)
        spec = EpisodeSpec(
            start=AgentPose(1, 1, Heading.EAST), goal_label=0, max_atomic_steps=80
        )
        rec = agent.run_episode(spec, mode="train", episode_idx=0)
        assert rec.options
        for trace in rec.options:
            assert trace.stop_reason != "subgoal_achieved"
            assert trace.behavior in ("low", "random")


@pytest.mark.parametrize("method", ["oracle", "random", "dqn", "hiem"])
class TestEpisodeRecords:
    """The episode protocol every agent keeps, whatever its policy."""

    def _agent(self, world, method):
        params = default_params(10, hidden=(8,), min_buffer=8, batch_size=4)
        return build_agent(world, MethodConfig(method), params, seed=0)

    def test_start_at_goal_is_zero_steps(self, open7, method):
        spec = EpisodeSpec(start=AgentPose(3, 3, Heading.EAST), goal_label=0)
        assert open7.is_goal_state(open7.reset(spec), 0)
        rec = self._agent(open7, method).run_episode(
            spec, mode="eval", rng=np.random.default_rng(0))
        assert rec.success
        assert rec.options == []
        assert rec.atomic_steps == 0
        assert rec.discounted_return == 1.0

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_option_lengths_are_paths_and_sum_to_steps(self, bench15, method, mode):
        agent = self._agent(bench15, method)
        specs = sample_episode_specs(bench15, 6, seed=2, max_atomic_steps=60)
        steps = 0
        for i, (spec, _) in enumerate(specs):
            rec = agent.run_episode(spec, mode=mode, episode_idx=i,
                                    rng=np.random.default_rng(i))
            for trace in rec.options:
                assert trace.length == len(trace.path) > 0
            assert sum(t.length for t in rec.options) == rec.atomic_steps <= 60
            steps += rec.atomic_steps
        assert steps > 0
