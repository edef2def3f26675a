"""Comparison methods.

Oracle and Random are policy stubs around the exact shortest-path search and
a uniform draw.  Flat DQN is a single extrinsic Q-learner over atomic
actions.  OC reuses the hierarchical machinery with anonymous options (no
visibility masking, no sub-goal achievement, no intrinsic learner).  h-DQN
and the ablations are configuration restrictions of the full controller:

    hdqn       = force_term_zero + force_alpha=1
    hiem_proxy = force_alpha=0
    hiem_low   = force_alpha=1
    hiem_term  = force_term_zero
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .agent import (
    STOP_EPISODE_CAP,
    STOP_GOAL,
    AnonymousOptionSpace,
    Batch,
    FrameMemo,
    HiemAgent,
    HiemParams,
    LabelSubgoalSpace,
    OptionTrace,
    ReplayLearner,
    start_episode,
)
from .checkpoint import Learner
from .features import FeatureCodec
from .gridworld import Action, ConfigError, EpisodeSpec, N_ACTIONS, World
from .nets import Mlp, clone_net, make_optimizer, train_step

METHODS = (
    "oracle",
    "random",
    "dqn",
    "oc",
    "hdqn",
    "hiem",
    "hiem_proxy",
    "hiem_low",
    "hiem_term",
)


@dataclass(frozen=True)
class MethodConfig:
    method: str
    force_term_zero: bool = False
    force_alpha: Optional[float] = None
    option_count: int = 4

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")

    @property
    def trainable(self) -> bool:
        return self.method not in ("oracle", "random")


_ABLATION_OVERRIDES = {
    "hdqn": dict(force_term_zero=True, force_alpha=1.0),
    "hiem_proxy": dict(force_alpha=0.0),
    "hiem_low": dict(force_alpha=1.0),
    "hiem_term": dict(force_term_zero=True),
    "hiem": dict(),
    "oc": dict(),
}


def oracle_policy(world: World, state, goal_label: int) -> Optional[Action]:
    """First action of a shortest path to the goal predicate, or None when
    the state already satisfies it.  Recomputed from scratch each call."""
    path = world.shortest_path_actions(
        state.pose, lambda s: world.is_goal_state(s, goal_label)
    )
    if path is None:
        raise ConfigError("goal unreachable from the current state")
    return path[0] if path else None


def random_policy(rng: np.random.Generator) -> Action:
    return Action(int(rng.integers(N_ACTIONS)))


def walk(world: World, spec: EpisodeSpec, params: HiemParams, name: str, policy):
    """One option named `name` of `policy(state)` actions from the spec's
    start until the goal or the step cap; no option when the start is a
    goal state."""
    g = spec.goal_label
    state, record = start_episode(world, spec)
    max_atomic = min(params.max_atomic, spec.max_atomic_steps)
    trace = OptionTrace(sg=0, sg_name=name, behavior=name)
    success = world.is_goal_state(state, g)
    while not success and trace.length < max_atomic:
        state, _ = world.step(state, policy(state))
        trace.path.append(world.cell(state.pose))
        success = world.is_goal_state(state, g)
    trace.stop_reason = STOP_GOAL if success else STOP_EPISODE_CAP
    record.options = [trace] if trace.length else []
    return record.close(success, trace.length, params.gamma)


class OracleAgent:
    def __init__(self, world: World, params: HiemParams):
        self.world = world
        self.params = params

    def run_episode(self, spec: EpisodeSpec, mode="eval", episode_idx=0, rng=None):
        world, g = self.world, spec.goal_label
        return walk(world, spec, self.params, "oracle",
                    lambda state: oracle_policy(world, state, g))


class RandomAgent:
    def __init__(self, world: World, params: HiemParams):
        self.world = world
        self.params = params

    def run_episode(self, spec: EpisodeSpec, mode="eval", episode_idx=0, rng=None):
        if rng is None:
            raise ValueError("random agent needs an rng")
        return walk(self.world, spec, self.params, "random",
                    lambda state: random_policy(rng))


class FlatDqnAgent(ReplayLearner):
    """Single Q(s, g, a) learner over the six atomic actions, extrinsic
    rewards only, same observation encoding as the high-level net.  A
    replay row holds the step's frame ids, `g`, `a`, `r_e` and
    `goal_reached`."""

    def __init__(self, world: World, params: HiemParams, seed: int):
        super().__init__(world, params, seed)
        self.codec = FeatureCodec(world, 1, history_len=params.history_len)
        self.net = Mlp([self.codec.high_dim, *params.hidden, N_ACTIONS], self.rng)
        self.net_t = clone_net(self.net)
        self.opt = make_optimizer(params.optimizer, params.lr)

    def act(self, history, g, eps, rng) -> int:
        """Eps-greedy action at `history`, a history deque or a stacked
        history; the net runs only on a greedy pick."""
        if eps > 0 and rng.random() < eps:
            return int(rng.integers(N_ACTIONS))
        q = self.net.forward(self.codec.high_input(history, g))[0]
        return int(np.argmax(q))

    def update(self, batch: Batch) -> float:
        q_sp = self.net_t.forward(batch.sp_in)
        v = np.where(batch.goal_reached, 0.0, q_sp.max(axis=1))
        targets = batch.r_e + self.params.gamma * v
        self._alarm(targets)
        return train_step(self.net, self.opt, batch.s_in, batch.a, targets)

    def _train_round(self):
        self.update(self._batch_arrays(self.replay.sample(self.params.batch_size, self.rng)))
        self._round_done()

    def learners(self) -> list:
        return [Learner("net/online", "net/target", "opt/", "opt_t",
                        self.net, self.net_t, self.opt)]

    def run_episode(self, spec: EpisodeSpec, mode="train", episode_idx=0, rng=None):
        """One episode.  An eval-mode episode (a query) keeps one
        `FrameMemo` of the greedy action per history, and stacks a history
        only on a memo miss."""
        if rng is None:
            rng = self.rng
        p = self.params
        world = self.world
        train = mode == "train"
        g = spec.goal_label
        state, record = start_episode(world, spec)
        history = self.codec.new_history()
        obs = world.observe(state)
        history.append(self.codec.obs_vec(obs))
        eps = 0.0 if mode == "eval" else float(p.eps_low.value(episode_idx))
        max_atomic = min(p.max_atomic, spec.max_atomic_steps)
        trace = OptionTrace(sg=0, sg_name="dqn", behavior="low")
        success = world.is_goal_state(state, g)
        if train:
            ids = self.codec.new_frame_ids()
            ids.append(self.codec.frame_id(obs))
        else:
            memo = FrameMemo()
            greedy = lambda frames: self.act(self.codec.stack_history(frames), g, 0.0, rng)
        while not success:
            if train:
                a = self.act(history, g, eps, rng)
            else:
                a = memo.get("act", history, greedy)
            state, _ = world.step(state, a)
            obs = world.observe(state)
            history.append(self.codec.obs_vec(obs))
            success = world.is_goal_state(state, g)
            trace.path.append(world.cell(state.pose))
            if train:
                ids.append(self.codec.frame_id(obs))
                self._push(frames=ids, g=g, a=a, r_e=1.0 if success else 0.0,
                           goal_reached=success)
            if trace.length >= max_atomic:
                break
        trace.stop_reason = STOP_GOAL if success else STOP_EPISODE_CAP
        record.options = [trace] if trace.length else []
        if train:
            self.episodes_done += 1
        return record.close(success, trace.length, p.gamma)


def build_agent(world: World, cfg: MethodConfig, params: HiemParams, seed: int):
    """Construct the agent for a method id.  Ablation methods rewrite the
    force_term_zero / force_alpha fields of a copy of `params`."""
    method = cfg.method
    if method == "oracle":
        return OracleAgent(world, params)
    if method == "random":
        return RandomAgent(world, params)
    if method == "dqn":
        return FlatDqnAgent(world, params, seed)

    overrides = dict(_ABLATION_OVERRIDES[method])
    if cfg.force_term_zero:
        overrides["force_term_zero"] = True
    if cfg.force_alpha is not None:
        overrides["force_alpha"] = cfg.force_alpha
    p = HiemParams(**{**params.__dict__, **overrides})
    if method == "oc":
        space = AnonymousOptionSpace(cfg.option_count)
    else:
        space = LabelSubgoalSpace(world)
    return HiemAgent(world, space, p, seed)
