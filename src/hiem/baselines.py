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
    AnonymousOptionSpace,
    EpisodeRecord,
    HiemAgent,
    HiemParams,
    LabelSubgoalSpace,
    OptionTrace,
)
from .checkpoint import Learner, pack_state, unpack_state
from .features import FeatureCodec
from .gridworld import Action, ConfigError, EpisodeSpec, N_ACTIONS, World
from .nets import Mlp, ReplayBuffer, clone_net, make_optimizer, sync_target, train_step

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


class OracleAgent:
    def __init__(self, world: World, params: HiemParams):
        self.world = world
        self.params = params

    def run_episode(self, spec: EpisodeSpec, mode="eval", episode_idx=0, rng=None):
        world = self.world
        g = spec.goal_label
        state = world.reset(spec)
        record = EpisodeRecord(
            goal=g,
            goal_name=world.label_names[g],
            success=False,
            atomic_steps=0,
            start=(state.pose.x, state.pose.y, int(state.pose.heading)),
        )
        path = world.shortest_path_actions(
            state.pose, lambda s: world.is_goal_state(s, g)
        )
        if path is None:
            raise ConfigError("goal unreachable from the start state")
        max_atomic = min(self.params.max_atomic, spec.max_atomic_steps)
        trace = OptionTrace(sg=0, sg_name="oracle", behavior="oracle")
        steps = 0
        while not world.is_goal_state(state, g) and steps < max_atomic:
            action = oracle_policy(world, state, g)
            state, _ = world.step(state, action)
            steps += 1
            trace.path.append(world.cell(state.pose))
        record.success = world.is_goal_state(state, g)
        record.atomic_steps = steps
        trace.stop_reason = "goal_reached" if record.success else "episode_cap"
        trace.transitions = [None] * steps
        record.options = [trace] if steps else []
        record.discounted_return = (
            self.params.gamma**steps if record.success else 0.0
        )
        return record


class RandomAgent:
    def __init__(self, world: World, params: HiemParams):
        self.world = world
        self.params = params

    def run_episode(self, spec: EpisodeSpec, mode="eval", episode_idx=0, rng=None):
        if rng is None:
            raise ValueError("random agent needs an rng")
        world = self.world
        g = spec.goal_label
        state = world.reset(spec)
        record = EpisodeRecord(
            goal=g,
            goal_name=world.label_names[g],
            success=False,
            atomic_steps=0,
            start=(state.pose.x, state.pose.y, int(state.pose.heading)),
        )
        max_atomic = min(self.params.max_atomic, spec.max_atomic_steps)
        trace = OptionTrace(sg=0, sg_name="random", behavior="random")
        steps = 0
        success = world.is_goal_state(state, g)
        while not success and steps < max_atomic:
            state, _ = world.step(state, random_policy(rng))
            steps += 1
            trace.path.append(world.cell(state.pose))
            success = world.is_goal_state(state, g)
        record.success = success
        record.atomic_steps = steps
        trace.stop_reason = "goal_reached" if success else "episode_cap"
        trace.transitions = [None] * steps
        record.options = [trace] if steps else []
        record.discounted_return = self.params.gamma**steps if success else 0.0
        return record


@dataclass
class DqnTransition:
    s_hist: np.ndarray
    sp_hist: np.ndarray
    g: int
    a: int
    r_e: float
    goal_reached: bool


class FlatDqnAgent:
    """Single Q(s, g, a) learner over the six atomic actions, extrinsic
    rewards only, same observation encoding as the high-level net."""

    def __init__(self, world: World, params: HiemParams, seed: int):
        self.world = world
        self.params = params
        self.codec = FeatureCodec(world, 1, history_len=params.history_len)
        self.rng = np.random.default_rng(seed)
        self.net = Mlp([self.codec.high_dim, *params.hidden, N_ACTIONS], self.rng)
        self.net_t = clone_net(self.net)
        self.opt = make_optimizer(params.optimizer, params.lr)
        self.replay = ReplayBuffer(params.buffer_capacity)
        self.atomic_steps_total = 0
        self.train_rounds = 0
        self.episodes_done = 0

    def act(self, hist_vec, g, eps, rng) -> int:
        if eps > 0 and rng.random() < eps:
            return int(rng.integers(N_ACTIONS))
        q = self.net.forward(self.codec.high_input(hist_vec, g))[0]
        return int(np.argmax(q))

    def update(self, batch) -> float:
        p = self.params
        sp = np.stack([t.sp_hist for t in batch])
        gs = np.array([t.g for t in batch])
        q_sp = self.net_t.forward(self.codec.high_inputs(sp, gs))
        v = q_sp.max(axis=1)
        goal_reached = np.array([t.goal_reached for t in batch])
        v = np.where(goal_reached, 0.0, v)
        targets = np.array([t.r_e for t in batch]) + p.gamma * v
        s = np.stack([t.s_hist for t in batch])
        acts = np.array([t.a for t in batch])
        return train_step(self.net, self.opt, self.codec.high_inputs(s, gs), acts, targets)

    def _maybe_train(self):
        p = self.params
        if len(self.replay) >= p.min_buffer and (
            self.atomic_steps_total % p.train_every == 0
        ):
            self.update(self.replay.sample(p.batch_size, self.rng))
            self.train_rounds += 1
            if self.train_rounds % p.target_sync == 0:
                sync_target(self.net, self.net_t)

    def run_episode(self, spec: EpisodeSpec, mode="train", episode_idx=0, rng=None):
        if rng is None:
            rng = self.rng
        p = self.params
        world = self.world
        g = spec.goal_label
        state = world.reset(spec)
        history = self.codec.new_history()
        obs = world.observe(state)
        history.append(self.codec.obs_vec(obs))
        record = EpisodeRecord(
            goal=g,
            goal_name=world.label_names[g],
            success=False,
            atomic_steps=0,
            start=(state.pose.x, state.pose.y, int(state.pose.heading)),
        )
        if world.is_goal_state(state, g):
            record.success = True
            record.discounted_return = 1.0
            if mode == "train":
                self.episodes_done += 1
            return record
        eps = 0.0 if mode == "eval" else float(p.eps_low.value(episode_idx))
        max_atomic = min(p.max_atomic, spec.max_atomic_steps)
        trace = OptionTrace(sg=0, sg_name="dqn", behavior="low")
        steps = 0
        success = False
        hist_vec = self.codec.stack_history(history)
        while True:
            a = self.act(hist_vec, g, eps, rng)
            state2, _ = world.step(state, Action(a))
            obs2 = world.observe(state2)
            history.append(self.codec.obs_vec(obs2))
            sp_hist = self.codec.stack_history(history)
            steps += 1
            goal_reached = world.is_goal_state(state2, g)
            tr = DqnTransition(
                s_hist=hist_vec,
                sp_hist=sp_hist,
                g=g,
                a=a,
                r_e=1.0 if goal_reached else 0.0,
                goal_reached=goal_reached,
            )
            trace.path.append(world.cell(state2.pose))
            state, hist_vec = state2, sp_hist
            if mode == "train":
                self.replay.push(tr)
                self.atomic_steps_total += 1
                self._maybe_train()
            if goal_reached:
                success = True
                break
            if steps >= max_atomic:
                break
        record.success = success
        record.atomic_steps = steps
        trace.stop_reason = "goal_reached" if success else "episode_cap"
        trace.transitions = [None] * steps
        record.options = [trace]
        record.discounted_return = p.gamma**steps if success else 0.0
        if mode == "train":
            self.episodes_done += 1
        return record

    def learners(self) -> list:
        return [Learner("net/online", "net/target", "opt/", "opt_t",
                        self.net, self.net_t, self.opt)]

    def get_state(self) -> dict:
        return pack_state(self)

    def set_state(self, state: dict) -> None:
        unpack_state(self, state)


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
