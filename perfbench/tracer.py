"""Span tracing around calls into the layers of `hiem`.

`Tracer.installed()` replaces the public functions and methods listed in
`layer_targets` with wrappers that record one span per call: its layer
name, start, end, parent span and root span (the benchmark operation it
belongs to).  Spans are kept in flat arrays in memory and written out once,
at the end, by `save`.  A span's self time is its duration minus the
durations of its direct children.  Nothing in `hiem` itself changes; the
originals are put back when the `with` block ends.
"""
from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np


def _rows(tracer, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counters["nets.forward.rows"] += 1 if np.ndim(x) < 2 else len(x)


def _saved_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counters["checkpoint.save.bytes"] += os.path.getsize(path)


def _batch_use(tracer, args, kwargs, result):
    tracer.counters["agent.batch_sampled"] += len(args[1])
    tracer.counters["agent.batch_used"] += len(result)


def layer_targets():
    """(owner, attribute, span name, hook) for every traced boundary.  A
    function that other modules import by name is patched where it is
    looked up at call time."""
    from hiem import agent, baselines, features, gridworld, metrics, nets, training

    World, Codec, Agent = gridworld.World, features.FeatureCodec, agent.HiemAgent
    targets = [
        (World, "step", "gridworld.step", None),
        (World, "observe", "gridworld.observe", None),
        (World, "is_goal_state", "gridworld.is_goal_state", None),
        (gridworld, "line_of_sight", "gridworld.line_of_sight", None),
        (World, "shortest_path_actions", "gridworld.shortest_path", None),
    ]
    for name in ("obs_vec", "new_history", "stack_history", "high_input", "low_ext_input",
                 "low_int_input", "high_inputs", "low_ext_inputs", "low_int_inputs"):
        targets.append((Codec, name, "features.encode", None))
    for name in ("propose_subgoal", "act_low", "act_proxy", "term_prob"):
        targets.append((Agent, name, "agent.decide", None))
    targets += [
        (Agent, "run_episode", "agent.run_episode", None),
        (Agent, "run_option", "agent.run_option", None),
        (Agent, "_train_round", "agent.train_round", None),
        (Agent, "_u_batch", "agent.u_batch", None),
        (Agent, "_batch_arrays", "agent.batch_arrays", None),
        (Agent, "_non_random", "agent.non_random", _batch_use),
    ]
    for cls, names in ((nets.Mlp, ("forward",)),
                       (nets.SharedTrunkNet, ("q_values", "term_probs", "forward_both"))):
        for name in names:
            targets.append((cls, name, "nets.forward", _rows))
    for cls, names in ((nets.Mlp, ("backward",)),
                       (nets.SharedTrunkNet, ("q_backward", "term_backward"))):
        for name in names:
            targets.append((cls, name, "nets.backward", None))
    targets += [
        (nets.Adam, "step", "nets.optimizer", None),
        (nets.Sgd, "step", "nets.optimizer", None),
        (nets.ReplayBuffer, "push", "nets.replay_push", None),
        (nets.ReplayBuffer, "sample", "nets.replay_sample", None),
    ]
    for name in ("train_step", "train_q_step", "train_term_step"):
        targets.append((agent, name, "nets.train_step", None))
    targets += [
        (agent, "sync_target", "nets.target_sync", None),
        (metrics, "sample_episode_specs", "metrics.sample_specs", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (baselines, "oracle_policy", "baselines.oracle_policy", None),
        (baselines.OracleAgent, "run_episode", "baselines.run_episode", None),
        (training, "train", "training.train", None),
        (training, "save_checkpoint", "checkpoint.save", _saved_bytes),
    ]
    return targets


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.t0 = time.perf_counter()

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self._name(name)
        name_id, parent, root = self.name_id, self.parent, self.root
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            up = stack[-1]
            name_id.append(nid)
            parent.append(up)
            root.append(idx if up < 0 else root[up])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def installed(self):
        return _Installed(self, layer_targets())

    # ----- results ----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64) - self.t0,
            np.frombuffer(self.end, dtype=np.float64) - self.t0,
        )

    def layer_stats(self):
        """({name: (calls, self seconds)}, {(child, parent): calls}) from the
        recorded spans; a root span's parent is None."""
        name_id, parent, start, end = self.arrays()
        n = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(name_id, minlength=n)
        self_s = np.bincount(name_id, weights=dur - child_time, minlength=n)
        stats = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}
        parent_id = np.where(has_parent, name_id[np.maximum(parent, 0)], n)
        pairs = np.bincount(name_id * (n + 1) + parent_id, minlength=n * (n + 1))
        names = self.names + [None]
        edges = {(names[k // (n + 1)], names[k % (n + 1)]): int(c)
                 for k, c in enumerate(pairs) if c}
        return stats, edges

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            root=np.frombuffer(self.root, dtype=np.int32),
            start=start,
            end=end,
        )


class _Installed:
    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self.saved = []

    def __enter__(self):
        for owner, attr, name, hook in self.targets:
            original = vars(owner)[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(original, name, hook))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False
