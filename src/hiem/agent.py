"""Two-level hierarchical controller.

The high level proposes a sub-goal among the objects currently visible (plus
a fallback random sub-goal), the low level executes atomic actions until the
option ends.  Four learners are trained off-policy from a shared replay
buffer:

  * high Q over sub-goals, regressed toward r_e + gamma * U(s')
  * low extrinsic Q over actions, regressed toward the same 1-step return
  * termination head, moved by the advantage of sticking with the sub-goal
  * low intrinsic Q over actions, regressed toward r_i + gamma * V_i(s')

U(s') mixes continuation and re-planning value through the termination
probability: (1 - term) * Qh(s', sg) + term * max over valid sub-goals.
All bootstrap values come from target-network copies and are zeroed at goal
states.

Replay keeps each train step as one row of frame ids and scalars (see
`ReplayLearner`).  A train round samples the replay once and turns the
sample into one `Batch` of arrays.  The high Q learns from every row; the
other three learners learn from its non-random subset, the rows not under
the random sub-goal, taken once per round, and U on that subset is
computed once for the low extrinsic and termination updates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .checkpoint import Learner, pack_state, unpack_state
from .features import FeatureCodec
from .gridworld import EpisodeSpec, N_ACTIONS, State, World
from .nets import (
    Mlp,
    NumericsError,
    ReplayBuffer,
    Schedule,
    SharedTrunkNet,
    clone_net,
    make_optimizer,
    sync_target,
    train_q_step,
    train_step,
    train_term_step,
)

STOP_TERMINATED = "terminated"
STOP_SUBGOAL = "subgoal_achieved"
STOP_STEP_CAP = "step_cap"
STOP_GOAL = "goal_reached"
STOP_EPISODE_CAP = "episode_cap"


class ValueDriftError(NumericsError):
    """Q predictions escaped the sane range for binary episodic rewards."""


# ----- sub-goal spaces ------------------------------------------------------


class LabelSubgoalSpace:
    """Sub-goals are 'approach label l' for visible labels, plus one random
    fallback slot at index n_labels."""

    def __init__(self, world: World):
        self.n_labels = world.n_labels
        self.n = world.n_labels + 1
        self.random_index: Optional[int] = world.n_labels
        self.has_intrinsic = True
        self._names = list(world.label_names) + ["random"]
        self._masks: dict[frozenset, np.ndarray] = {}

    def valid_mask(self, visible_labels) -> np.ndarray:
        """The proposable sub-goals; one read-only mask per set of visible
        labels, computed on first use."""
        key = frozenset(visible_labels)
        mask = self._masks.get(key)
        if mask is None:
            mask = np.zeros(self.n, dtype=bool)
            for l in key:
                mask[l] = True
            mask[self.random_index] = True
            mask.setflags(write=False)
            self._masks[key] = mask
        return mask

    def is_achieved(self, world: World, state: State, sg: int) -> bool:
        if sg == self.random_index:
            return False
        return world.is_goal_state(state, sg)

    def name(self, sg: int) -> str:
        return self._names[sg]


class AnonymousOptionSpace:
    """Fixed count of abstract options: always proposable, never 'achieved',
    no intrinsic learning.  Options end only by termination, the step cap or
    episode-level events."""

    def __init__(self, n_options: int):
        self.n = int(n_options)
        self.random_index: Optional[int] = None
        self.has_intrinsic = False
        self._mask = np.ones(self.n, dtype=bool)
        self._mask.setflags(write=False)

    def valid_mask(self, visible_labels) -> np.ndarray:
        return self._mask

    def is_achieved(self, world: World, state: State, sg: int) -> bool:
        return False

    def name(self, sg: int) -> str:
        return f"option{sg}"


# ----- records --------------------------------------------------------------


@dataclass
class Transition:
    """One atomic step of an option's trace, as scalars, in train and eval
    mode alike.  Replay keeps a train step as frame ids and scalars (see
    `ReplayLearner`), so a record holds no array."""

    g: int
    sg: int
    a: int
    r_e: float
    r_i: float
    goal_reached: bool
    subgoal_reached: bool


class Batch:
    """A replay sample as arrays, one row per sampled step: `s_in` and
    `sp_in`, the high nets' inputs at s and s' (stacked history, then the
    goal one-hot; `n x high_dim`), and the stored scalar fields (for
    `HiemAgent`, those of `Transition` and the `valid_after` mask)."""

    def __init__(self, **columns):
        self.__dict__.update(columns)

    def __len__(self) -> int:
        return len(self.g)


@dataclass
class OptionTrace:
    sg: int
    sg_name: str
    behavior: str  # "low" | "proxy" | "random"
    # Transition per step, hiem only; scalars, no arrays
    transitions: list = field(default_factory=list)
    stop_reason: str = ""
    path: list = field(default_factory=list)  # (x, y) after each step

    @property
    def length(self) -> int:
        return len(self.path)


@dataclass
class EpisodeRecord:
    goal: int
    goal_name: str
    start: tuple  # (x, y, heading)
    success: bool = False
    atomic_steps: int = 0
    options: list = field(default_factory=list)  # OptionTrace
    discounted_return: float = 0.0

    def close(self, success: bool, steps: int, gamma: float) -> EpisodeRecord:
        """Set the outcome: the return is gamma**steps on success, else 0."""
        self.success = success
        self.atomic_steps = steps
        self.discounted_return = gamma**steps if success else 0.0
        return self


def start_episode(world: World, spec: EpisodeSpec):
    """Reset the world to the spec's start; returns (state, open record)."""
    state = world.reset(spec)
    g = spec.goal_label
    pose = state.pose
    record = EpisodeRecord(goal=g, goal_name=world.label_names[g],
                           start=(pose.x, pose.y, int(pose.heading)))
    return state, record


class FrameMemo:
    """Values computed once per distinct input within one eval query.

    An input is a `kind` (any hashable: which value, and for which
    sub-goal) and a sequence of frames.  The codec shares one read-only
    frame per `Observation` and the goal is fixed per query, so frames are
    keyed by identity; each entry keeps its frames, so no id is recycled
    while the memo lives.  Eval is greedy, so a value depends on its input
    alone while the weights stay fixed: a memo serves one query and is
    dropped when the query returns."""

    def __init__(self):
        self.entries: dict[tuple, tuple] = {}

    def get(self, kind, frames, compute):
        """The value for (`kind`, `frames`): `compute(frames)` on first
        use, with `frames` as a tuple."""
        key = (kind, *map(id, frames))
        entry = self.entries.get(key)
        if entry is None:
            frames = tuple(frames)
            entry = self.entries[key] = (frames, compute(frames))
        return entry[1]


# ----- hyper-parameters -----------------------------------------------------


@dataclass
class HiemParams:
    gamma: float = 0.99
    max_atomic: int = 500
    max_low_level: int = 25
    hidden: tuple = (128, 64)
    history_len: int = 4
    lr: float = 1e-3
    optimizer: str = "adam"
    buffer_capacity: int = 50_000
    batch_size: int = 32
    min_buffer: int = 1_000
    train_every: int = 1
    target_sync: int = 500
    alpha_schedule: object = field(default_factory=lambda: Schedule(1.0, 0.0, 1))
    eps_high: object = field(default_factory=lambda: Schedule(1.0, 0.05, 1))
    eps_low: object = field(default_factory=lambda: Schedule(1.0, 0.05, 1))
    force_term_zero: bool = False
    force_alpha: Optional[float] = None
    term_threshold_eval: bool = False
    value_alarm: bool = True
    alarm_warmup: int = 10_000
    alarm_low: float = -0.5
    alarm_high: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        for name in ("target_sync", "train_every", "batch_size", "history_len",
                     "max_low_level"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.max_low_level > self.max_atomic:
            raise ValueError("max_low_level must not exceed max_atomic")


def default_params(train_episodes: int, **overrides) -> HiemParams:
    """Schedules keyed to the training horizon: alpha anneals 1 -> 0 over all
    episodes, both epsilons 1 -> 0.05 over the first half."""
    half = max(1, train_episodes // 2)
    base = dict(
        alpha_schedule=Schedule(1.0, 0.0, max(1, train_episodes)),
        eps_high=Schedule(1.0, 0.05, half),
        eps_low=Schedule(1.0, 0.05, half),
    )
    base.update(overrides)
    return HiemParams(**base)


# ----- the controller -------------------------------------------------------


class ReplayLearner:
    """What the trainable agents share: the replay buffer, the counters a
    checkpoint keeps, the train-round trigger, the batch builder, the value
    alarm, target sync and checkpoint state.  A subclass has a `codec`,
    defines `learners()`, its nets in checkpoint order, and
    `_train_round()`, which learns from one replay sample and ends with
    `_round_done()`.

    Replay stores a train step as one row: `frames`, the ids of the
    `history_len + 1` frames from the oldest of s to the newest of s' in
    the codec's frame table, then the step's scalars and masks.  No
    stacked history is stored; `_batch_arrays` builds the nets' inputs
    from the ids."""

    def __init__(self, world: World, params: HiemParams, seed: int):
        self.world = world
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.replay = ReplayBuffer(params.buffer_capacity)
        self.atomic_steps_total = 0
        self.train_rounds = 0
        self.episodes_done = 0

    def _push(self, **row) -> None:
        """Store one train step's row; train a round once replay holds
        `min_buffer` rows, every `train_every` steps."""
        p = self.params
        self.replay.push(**row)
        self.atomic_steps_total += 1
        if len(self.replay) >= p.min_buffer and (
            self.atomic_steps_total % p.train_every == 0
        ):
            self._train_round()

    def _batch_arrays(self, rows: dict) -> Batch:
        """Replay rows as one `Batch`.  `s_in` and `sp_in` are built once
        each from the codec's frame table, from each row's first and last
        `history_len` frame ids: the floats of `high_input` on the
        histories the agent acted on, in the same order."""
        ids, g = rows["frames"], rows["g"]
        return Batch(s_in=self.codec.high_inputs(ids[:, :-1], g),
                     sp_in=self.codec.high_inputs(ids[:, 1:], g),
                     **{k: v for k, v in rows.items() if k != "frames"})

    def _alarm(self, values):
        p = self.params
        if not p.value_alarm or self.train_rounds <= p.alarm_warmup:
            return
        if values.size and (values.min() < p.alarm_low or values.max() > p.alarm_high):
            raise ValueDriftError(
                f"bootstrap values left [{p.alarm_low}, {p.alarm_high}]: "
                f"min={values.min():.4f} max={values.max():.4f} "
                f"at train round {self.train_rounds}"
            )

    def _round_done(self) -> None:
        self.train_rounds += 1
        if self.train_rounds % self.params.target_sync == 0:
            self.sync_targets()

    def sync_targets(self):
        for l in self.learners():
            sync_target(l.net, l.target)

    def get_state(self) -> dict:
        return pack_state(self)

    def set_state(self, state: dict) -> None:
        unpack_state(self, state)


class HiemAgent(ReplayLearner):
    def __init__(self, world: World, space, params: HiemParams, seed: int):
        super().__init__(world, params, seed)
        self.space = space
        self.codec = FeatureCodec(world, space.n, history_len=params.history_len)

        p = params
        self.high = SharedTrunkNet(self.codec.high_dim, p.hidden, space.n, self.rng)
        self.high_t = clone_net(self.high)
        self.low_ext = Mlp(
            [self.codec.low_ext_dim, *p.hidden, N_ACTIONS], self.rng
        )
        self.low_ext_t = clone_net(self.low_ext)
        if space.has_intrinsic:
            self.low_int = Mlp(
                [self.codec.low_int_dim, *p.hidden, N_ACTIONS], self.rng
            )
            self.low_int_t = clone_net(self.low_int)
            self.opt_low_int = make_optimizer(p.optimizer, p.lr)
        else:
            self.low_int = self.low_int_t = self.opt_low_int = None

        self.opt_high = make_optimizer(p.optimizer, p.lr)
        self.opt_low_ext = make_optimizer(p.optimizer, p.lr)

    # -- policies ------------------------------------------------------------

    def propose_subgoal(self, history, g, visible_labels, eps, rng, q_row=None) -> int:
        """Greedy (or eps-random) pick among the proposable sub-goals.  The
        high net's Q row at `history` (a history deque or a stacked
        history) is computed only when the pick needs it, or read from
        `q_row()` when given (an eval query's memo)."""
        mask = self.space.valid_mask(visible_labels)
        valid = np.flatnonzero(mask)
        if len(valid) == 1:
            return int(valid[0])
        if eps > 0 and rng.random() < eps:
            return int(valid[rng.integers(len(valid))])
        if q_row is None:
            q = self.high.q_values(self.codec.high_input(history, g))[0]
        else:
            q = q_row()
        q = np.where(mask, q, -np.inf)
        return int(np.argmax(q))

    def act_low(self, frame, g, sg, eps, rng) -> int:
        if sg == self.space.random_index:
            raise ValueError("low-level extrinsic policy is undefined for the random sub-goal")
        if eps > 0 and rng.random() < eps:
            return int(rng.integers(N_ACTIONS))
        q = self.low_ext.forward(self.codec.low_ext_input(frame, g, sg))[0]
        return int(np.argmax(q))

    def act_proxy(self, frame, sg, eps, rng) -> int:
        if sg == self.space.random_index:
            raise ValueError("proxy policy is undefined for the random sub-goal")
        if self.low_int is None:
            raise ValueError("this configuration has no intrinsic learner")
        if eps > 0 and rng.random() < eps:
            return int(rng.integers(N_ACTIONS))
        q = self.low_int.forward(self.codec.low_int_input(frame, sg))[0]
        return int(np.argmax(q))

    def term_prob(self, history, g, sg, use_target=False) -> float:
        net = self.high_t if use_target else self.high
        return float(net.term_probs(self.codec.high_input(history, g))[0, sg])

    # -- bootstrap values ----------------------------------------------------

    def _u_batch(self, batch: Batch):
        """(U, Qh(s', sg), V(s')) for each row of `batch`, on the target
        networks; the termination update reads the last two."""
        sgs = batch.sg
        q_sp, term_sp = self.high_t.forward_both(batch.sp_in)
        q_masked = np.where(batch.valid_after, q_sp, -np.inf)
        v_sp = q_masked.max(axis=1)
        rows = np.arange(len(sgs))
        q_sg = q_sp[rows, sgs]
        t = term_sp[rows, sgs]
        if self.params.force_term_zero:
            t = np.zeros_like(t)
        if self.space.random_index is not None:
            is_random = sgs == self.space.random_index
            t = np.where(is_random, 1.0, t)  # random option: re-plan value only
        u = (1.0 - t) * q_sg + t * v_sp
        u = np.where(batch.goal_reached, 0.0, u)
        return u, q_sg, v_sp

    def compute_U(self, sp_hist, g, sg, valid_after, goal_reached=False) -> float:
        u, _, _ = self._u_batch(Batch(
            sp_in=self.codec.high_input(sp_hist, g)[None],
            sg=np.array([sg]),
            valid_after=np.atleast_2d(valid_after),
            goal_reached=np.array([goal_reached]),
        ))
        return float(u[0])

    # -- update rules --------------------------------------------------------

    # the one batch builder, bound on this class too: perfbench's tracer
    # patches a method on the class that defines it
    _batch_arrays = ReplayLearner._batch_arrays

    def _non_random(self, batch: Batch) -> Batch:
        """The rows not under the random sub-goal, in order; `batch` itself
        when there is no random sub-goal.  `update_low_extrinsic`,
        `update_term` and `update_low_intrinsic` take this subset, of at
        least one row."""
        ri = self.space.random_index
        if ri is None:
            return batch
        keep = batch.sg != ri
        return Batch(**{k: v[keep] for k, v in vars(batch).items()})

    def extrinsic_targets(self, batch: Batch, u) -> np.ndarray:
        """The shared 1-step extrinsic return r_e + gamma * U used by both
        the high-level and the low-level extrinsic updates; `u` is the
        first of `_u_batch(batch)`."""
        return batch.r_e + self.params.gamma * u

    def update_high(self, batch: Batch) -> float:
        targets = self.extrinsic_targets(batch, self._u_batch(batch)[0])
        self._alarm(targets)
        return train_q_step(self.high, self.opt_high, batch.s_in, batch.sg, targets)

    def update_low_extrinsic(self, batch: Batch, boot) -> float:
        """`boot` is `_u_batch(batch)`, shared with `update_term`."""
        targets = self.extrinsic_targets(batch, boot[0])
        self._alarm(targets)
        frames = self.codec.current_frames(batch.s_in)
        inputs = self.codec.low_ext_inputs(frames, batch.g, batch.sg)
        return train_step(self.low_ext, self.opt_low_ext, inputs, batch.a, targets)

    def update_term(self, batch: Batch, boot) -> None:
        """`boot` is `_u_batch(batch)`, shared with `update_low_extrinsic`."""
        _, q_sg, v_sp = boot
        train_term_step(self.high, self.opt_high, batch.sp_in, batch.sg, q_sg - v_sp)

    def update_low_intrinsic(self, batch: Batch) -> float:
        frames_sp = self.codec.current_frames(batch.sp_in)
        q_sp = self.low_int_t.forward(self.codec.low_int_inputs(frames_sp, batch.sg))
        v_i = np.where(batch.subgoal_reached | batch.goal_reached, 0.0, q_sp.max(axis=1))
        targets = batch.r_i + self.params.gamma * v_i
        self._alarm(targets)
        frames = self.codec.current_frames(batch.s_in)
        inputs = self.codec.low_int_inputs(frames, batch.sg)
        return train_step(self.low_int, self.opt_low_int, inputs, batch.a, targets)

    def _train_round(self):
        """One replay sample as one `Batch`: the high Q learns from every
        row, the other three learners from the non-random subset.  The
        low extrinsic and termination updates share one U of that subset:
        the same rows through the same target net, which neither update
        trains."""
        p = self.params
        batch = self._batch_arrays(self.replay.sample(p.batch_size, self.rng))
        self.update_high(batch)
        low = self._non_random(batch)
        if len(low):
            extrinsic, term = p.force_alpha != 1, not p.force_term_zero
            if extrinsic or term:
                boot = self._u_batch(low)
            if extrinsic:
                self.update_low_extrinsic(low, boot)
            if term:
                self.update_term(low, boot)
            if self.space.has_intrinsic and p.force_alpha != 0:
                self.update_low_intrinsic(low)
        self._round_done()

    def learners(self) -> list:
        """Every trained net with its target twin and optimizer, in
        checkpoint order."""
        rows = [("high", self.high, self.high_t, self.opt_high),
                ("low_ext", self.low_ext, self.low_ext_t, self.opt_low_ext)]
        if self.low_int is not None:
            rows.append(("low_int", self.low_int, self.low_int_t, self.opt_low_int))
        return [Learner(f"net/{k}", f"net/{k}_t", f"opt/{k}/", f"opt_t/{k}", *r)
                for k, *r in rows]

    # -- execution -----------------------------------------------------------

    def _effective_alpha(self, mode: str, episode_idx: int) -> float:
        if self.params.force_alpha is not None:
            return float(self.params.force_alpha)
        if mode == "eval":
            return 0.0
        return float(self.params.alpha_schedule.value(episode_idx))

    def _pick_behavior(self, sg: int, alpha: float, rng) -> str:
        if sg == self.space.random_index:
            return "random"
        if not self.space.has_intrinsic or alpha <= 0.0:
            return "low"
        if alpha >= 1.0:
            return "proxy"
        return "proxy" if rng.random() < alpha else "low"

    def _eval_high(self, memo: FrameMemo, history, g):
        """The high net's (Q row, termination row) at `history`: one
        forward per distinct history in an eval query."""
        def forward(frames):
            x = self.codec.high_input(self.codec.stack_history(frames), g)
            q, term = self.high.forward_both(x)
            return q[0], term[0]
        return memo.get("high", history, forward)

    def _eval_action(self, memo: FrameMemo, behavior, frame, g, sg, rng) -> int:
        """The greedy low-level or proxy action at `frame`: one per
        distinct (behaviour, sub-goal, frame) in an eval query."""
        if behavior == "proxy":
            act = lambda frames: self.act_proxy(frames[0], sg, 0.0, rng)
        else:
            act = lambda frames: self.act_low(frames[0], g, sg, 0.0, rng)
        return memo.get((behavior, sg), (frame,), act)

    def run_option(
        self,
        state,
        obs,
        history,
        g,
        sg,
        mode,
        alpha,
        eps_low,
        rng,
        atomic_so_far,
        max_atomic=None,
        memo=None,
        ids=None,
    ):
        """Execute one option.  Returns (trace, state, obs, atomic_steps_now,
        episode_done, success).  In train mode `ids` holds the frame ids of
        `history` and one slot before it (`FeatureCodec.new_frame_ids`),
        kept in step with `history`; the termination draw reads the high
        net's input straight from `history`.  Eval mode is greedy and
        reads net outputs from `memo`, the query's `FrameMemo` (a new one
        when None); it stacks a history only on a memo miss.

        After each step the option stops at the first of: the goal is
        reached, the episode's step cap is hit, the sub-goal is reached,
        the option's step cap is hit, the termination head fires."""
        p = self.params
        if max_atomic is None:
            max_atomic = p.max_atomic
        train = mode == "train"
        if not train:
            if eps_low:
                raise ValueError("eval mode is greedy: eps_low must be 0")
            if memo is None:
                memo = FrameMemo()
        behavior = self._pick_behavior(sg, alpha, rng)
        trace = OptionTrace(sg=sg, sg_name=self.space.name(sg), behavior=behavior)
        atomic = atomic_so_far
        success = False
        done = False
        while True:
            frame = history[-1]
            if behavior == "random":
                a = int(rng.integers(N_ACTIONS))
            elif not train:
                a = self._eval_action(memo, behavior, frame, g, sg, rng)
            elif behavior == "proxy":
                a = self.act_proxy(frame, sg, eps_low, rng)
            else:
                a = self.act_low(frame, g, sg, eps_low, rng)
            state2, _collided = self.world.step(state, a)
            obs2 = self.world.observe(state2)
            history.append(self.codec.obs_vec(obs2))
            if train:
                ids.append(self.codec.frame_id(obs2))
            atomic += 1

            goal_reached = self.world.is_goal_state(state2, g)
            subgoal_reached = self.space.is_achieved(self.world, state2, sg)
            r_e = 1.0 if goal_reached else 0.0
            r_i = 1.0 if subgoal_reached else 0.0
            trace.transitions.append(Transition(
                g=g,
                sg=sg,
                a=a,
                r_e=r_e,
                r_i=r_i,
                goal_reached=goal_reached,
                subgoal_reached=subgoal_reached,
            ))
            trace.path.append(self.world.cell(state2.pose))
            state, obs = state2, obs2
            if train:
                self._push(frames=ids, g=g, sg=sg, a=a, r_e=r_e, r_i=r_i,
                           goal_reached=goal_reached, subgoal_reached=subgoal_reached,
                           valid_after=self.space.valid_mask(obs2.visible_labels))

            if goal_reached:
                trace.stop_reason = STOP_GOAL
                done, success = True, True
                break
            if atomic >= max_atomic:
                trace.stop_reason = STOP_EPISODE_CAP
                done = True
                break
            if subgoal_reached:
                trace.stop_reason = STOP_SUBGOAL
                break
            if trace.length >= p.max_low_level:
                trace.stop_reason = STOP_STEP_CAP
                break
            if sg != self.space.random_index and not p.force_term_zero:
                if train:
                    tp = self.term_prob(history, g, sg)
                    fire = rng.random() < tp
                else:
                    tp = self._eval_high(memo, history, g)[1][sg]
                    fire = tp > 0.5 if p.term_threshold_eval else rng.random() < tp
                if fire:
                    trace.stop_reason = STOP_TERMINATED
                    break
        return trace, state, obs, atomic, done, success

    def run_episode(
        self, spec: EpisodeSpec, mode: str = "train", episode_idx: int = 0, rng=None
    ) -> EpisodeRecord:
        """One episode.  An eval-mode episode (a query) keeps one
        `FrameMemo` for its net outputs and drops it when it returns."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        if rng is None:
            rng = self.rng
        p = self.params
        train = mode == "train"
        g = spec.goal_label
        state, record = start_episode(self.world, spec)
        history = self.codec.new_history()
        obs = self.world.observe(state)
        history.append(self.codec.obs_vec(obs))
        max_atomic = min(p.max_atomic, spec.max_atomic_steps)
        alpha = self._effective_alpha(mode, episode_idx)
        eps_h = 0.0 if mode == "eval" else float(p.eps_high.value(episode_idx))
        eps_l = 0.0 if mode == "eval" else float(p.eps_low.value(episode_idx))
        atomic = 0
        success = done = self.world.is_goal_state(state, g)
        if train:
            memo = q_row = None
            ids = self.codec.new_frame_ids()
            ids.append(self.codec.frame_id(obs))
        else:
            memo = FrameMemo()
            q_row = lambda: self._eval_high(memo, history, g)[0]
            ids = None
        while not done:
            sg = self.propose_subgoal(history, g, obs.visible_labels, eps_h, rng, q_row)
            trace, state, obs, atomic, done, success = self.run_option(
                state, obs, history, g, sg, mode, alpha, eps_l, rng, atomic,
                max_atomic=max_atomic, memo=memo, ids=ids,
            )
            record.options.append(trace)
        if train:
            self.episodes_done += 1
        return record.close(success, atomic, p.gamma)
