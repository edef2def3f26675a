"""Checkpoint state of the trainable agents: files in the v1 layout load
and save unchanged, and optimizer state survives a save and a load.

`data/v1_hiem.npz` and `data/v1_dqn.npz` were written by the per-array
checkpoint code that came before one flat parameter vector per net, from
`tiny_agent(kind, 0)` after `train_briefly`.
"""
from pathlib import Path

import numpy as np
import pytest

from hiem.agent import HiemAgent, LabelSubgoalSpace, default_params
from hiem.baselines import FlatDqnAgent
from hiem.checkpoint import load_checkpoint, save_checkpoint
from hiem.mapfile import builtin_fixture, load_map
from hiem.training import sample_train_spec

DATA = Path(__file__).parent / "data"
KINDS = ("hiem", "dqn")


def tiny_agent(kind, seed):
    """One-frame history and one 4-unit hidden layer on open7, so that
    a checkpoint is a few kilobytes."""
    world = load_map(builtin_fixture("open7"))
    params = default_params(4, hidden=(4,), history_len=1, min_buffer=8,
                            batch_size=16, buffer_capacity=64, target_sync=5)
    if kind == "dqn":
        return FlatDqnAgent(world, params, seed)
    return HiemAgent(world, LabelSubgoalSpace(world), params, seed)


def _update(agent, batch):
    if isinstance(agent, FlatDqnAgent):
        agent.update(batch)
        return
    agent.update_high(batch)
    boot = agent._u_batch(batch)
    agent.update_low_extrinsic(batch, boot)
    agent.update_term(batch, boot)
    agent.update_low_intrinsic(batch)


def _batch(agent, rng):
    """A replay sample as a `Batch`; for hiem relabelled with sub-goal 0,
    because early training proposes the random sub-goal nearly always and
    the low-level learners skip its transitions.  The frame ids in replay
    index the sampling agent's own frame table, so an agent restored from
    a checkpoint learns from this `Batch`, not from the ids."""
    rows = agent.replay.sample(16, rng)
    if not isinstance(agent, FlatDqnAgent):
        rows["sg"] = np.zeros_like(rows["sg"])
    return agent._batch_arrays(rows)


def train_briefly(agent, episodes=6, rounds=3):
    for ep in range(episodes):
        spec = sample_train_spec(agent.world, agent.rng, 30)
        agent.run_episode(spec, mode="train", episode_idx=ep)
    for _ in range(rounds):
        _update(agent, _batch(agent, agent.rng))
    return agent


@pytest.mark.parametrize("kind", KINDS)
def test_v1_file_loads_and_reads_back_unchanged(kind):
    state = load_checkpoint(DATA / f"v1_{kind}.npz")
    agent = tiny_agent(kind, 1)
    agent.set_state(state)
    got = agent.get_state()
    assert list(got["arrays"]) == list(state["arrays"])
    for key, saved in state["arrays"].items():
        assert got["arrays"][key].dtype == saved.dtype
        assert np.array_equal(got["arrays"][key], saved), key
    assert got["meta"] == state["meta"]


@pytest.mark.parametrize("kind", KINDS)
def test_same_training_writes_the_v1_file_byte_for_byte(tmp_path, kind):
    path = tmp_path / "c.npz"
    save_checkpoint(path, train_briefly(tiny_agent(kind, 0)).get_state())
    assert path.read_bytes() == (DATA / f"v1_{kind}.npz").read_bytes()


@pytest.mark.parametrize("kind,steps_key", [("hiem", "opt_t/low_ext"), ("dqn", "opt_t")])
def test_unequal_per_parameter_step_counts_rejected(kind, steps_key):
    state = load_checkpoint(DATA / f"v1_{kind}.npz")
    state["meta"][steps_key][1] += 1
    with pytest.raises(ValueError, match="step counts"):
        tiny_agent(kind, 1).set_state(state)


@pytest.mark.parametrize("kind", KINDS)
def test_optimizer_state_survives_checkpoint(tmp_path, kind):
    a = train_briefly(tiny_agent(kind, 0))
    path = tmp_path / "c.npz"
    save_checkpoint(path, a.get_state())
    b = tiny_agent(kind, 7)
    b.set_state(load_checkpoint(path))
    batch = _batch(a, np.random.default_rng(3))
    _update(a, batch)
    _update(b, batch)
    for la, lb in zip(a.learners(), b.learners(), strict=True):
        assert la.opt.t > 1, la.net_key  # stepped before the save as well
        assert la.opt.t == lb.opt.t
        for x, y in ((la.net.flat, lb.net.flat), (la.target.flat, lb.target.flat),
                     (la.opt.m, lb.opt.m), (la.opt.v, lb.opt.v)):
            assert x.tobytes() == y.tobytes(), la.net_key
