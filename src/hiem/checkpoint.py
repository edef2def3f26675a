"""Versioned checkpoint files: a single .npz holding every parameter and
optimizer array plus a JSON metadata blob.  float64 arrays round-trip
bitwise.

Format 1 keeps one array per parameter.  `pack_state` and `unpack_state`
translate an agent's learners, counters and rng to and from that layout.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .nets import Adam

FORMAT_VERSION = 1
COUNTERS = ("atomic_steps_total", "train_rounds", "episodes_done")


class Learner(NamedTuple):
    """A trained net with its target twin and optimizer, and the names of
    their arrays in a checkpoint: parameter i of the nets as
    `<net_key>/<i>` and `<target_key>/<i>`, Adam's moments as
    `<opt_key>m<i>` and `<opt_key>v<i>`, and its step count, once per
    parameter, in the metadata list `<steps_key>` (empty for SGD)."""

    net_key: str
    target_key: str
    opt_key: str
    steps_key: str
    net: object
    target: object
    opt: object


def pack_state(agent) -> dict:
    """Checkpoint arrays and metadata of an agent with `learners()`, the
    COUNTERS and an `rng`."""
    learners = agent.learners()
    arrays = {}
    meta = {name: getattr(agent, name) for name in COUNTERS}
    meta["rng_state"] = agent.rng.bit_generator.state
    for l in learners:
        for key, net in ((l.net_key, l.net), (l.target_key, l.target)):
            for i, p in enumerate(net.params()):
                arrays[f"{key}/{i}"] = p
    for l in learners:
        meta[l.steps_key] = []
        if not isinstance(l.opt, Adam):
            continue
        m = np.zeros_like(l.net.flat) if l.opt.m is None else l.opt.m.copy()
        v = np.zeros_like(l.net.flat) if l.opt.v is None else l.opt.v.copy()
        for i, (mi, vi) in enumerate(zip(l.net.views(m), l.net.views(v))):
            arrays[f"{l.opt_key}m{i}"] = mi
            arrays[f"{l.opt_key}v{i}"] = vi
            meta[l.steps_key].append(l.opt.t)
    return {"arrays": arrays, "meta": meta}


def _fill(views, arrays, prefix):
    for i, view in enumerate(views):
        saved = arrays[f"{prefix}{i}"]
        if saved.shape != view.shape:
            raise ValueError(
                f"checkpoint architecture mismatch for {prefix}{i}: "
                f"{saved.shape} vs {view.shape}"
            )
        view[...] = saved


def unpack_state(agent, state: dict) -> None:
    """Load what `pack_state` wrote into an agent of the same architecture."""
    arrays, meta = state["arrays"], state["meta"]
    learners = agent.learners()
    for l in learners:
        for key, net in ((l.net_key, l.net), (l.target_key, l.target)):
            _fill(net.params(), arrays, f"{key}/")
    for l in learners:
        steps = meta.get(l.steps_key, [])
        if not steps or not isinstance(l.opt, Adam):
            continue
        if len(set(steps)) != 1 or len(steps) != len(l.net.shapes()):
            raise ValueError(
                f"checkpoint {l.steps_key} holds per-parameter step counts "
                f"{steps}; one net's parameters share one count"
            )
        m, v = np.zeros_like(l.net.flat), np.zeros_like(l.net.flat)
        _fill(l.net.views(m), arrays, f"{l.opt_key}m")
        _fill(l.net.views(v), arrays, f"{l.opt_key}v")
        l.opt.m, l.opt.v, l.opt.t = m, v, int(steps[0])
    for name in COUNTERS:
        setattr(agent, name, int(meta[name]))
    agent.rng.bit_generator.state = meta["rng_state"]


def save_checkpoint(path, state: dict, extra_meta: dict | None = None) -> None:
    arrays = dict(state["arrays"])
    meta = dict(state["meta"])
    meta["format_version"] = FORMAT_VERSION
    if extra_meta:
        meta["extra"] = extra_meta
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path) as data:
        arrays = {k: data[k].copy() for k in data.files if k != "__meta__"}
        meta = json.loads(bytes(data["__meta__"]).decode())
    version = meta.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    return {"arrays": arrays, "meta": meta}
