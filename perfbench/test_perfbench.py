"""Tests of the benchmark's own reference model, percentile rule, step-cap
guard and tracer.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import itertools
import time
from pathlib import Path

import pytest

from hiem import gridworld
from hiem.gridworld import Action, AgentPose, Heading, State
from hiem.mapfile import load_map

import reference
from measure import StepCapExceeded, StepCapGuard, percentile, tail_percentile
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SMALL = ("tabular5", "open7", "ray7")


def load(name):
    path = reference.fixture_path(ROOT, name)
    return reference.RefMap.load(path), load_map(path)


def state(pose):
    return State(AgentPose(pose[0], pose[1], Heading(pose[2])))


@pytest.mark.parametrize("name", SMALL)
def test_transition_rule_matches_world(name):
    ref, world = load(name)
    assert len(ref.poses()) == 4 * len(world.free_cells())
    for pose in ref.poses():
        for a in range(reference.N_ACTIONS):
            nxt, _ = world.step(state(pose), Action(a))
            assert ref.step(pose, a) == (nxt.pose.x, nxt.pose.y, int(nxt.pose.heading))


@pytest.mark.parametrize("name", SMALL)
def test_line_of_sight_matches_world(name):
    ref, world = load(name)
    cells = [(x, y) for x in range(ref.width) for y in range(ref.height)]
    for a, b in itertools.product(cells, cells):
        assert ref.line_of_sight(a, b) == gridworld.line_of_sight(world.grid, a, b), (a, b)


@pytest.mark.parametrize("name", SMALL)
def test_goal_test_and_bfs_match_world(name):
    ref, world = load(name)
    for label in ref.labels:
        g = world.label_names.index(label)
        for pose in ref.poses():
            assert ref.is_goal(pose, label) == world.is_goal_state(state(pose), g)
            expected = world.shortest_path_to_label(state(pose).pose, g)
            assert ref.bfs_distance(pose, label) == expected, (pose, label)


def test_line_of_sight_hand_cases():
    ref, _ = load("ray7")
    assert (3, 4) in ref.walls
    assert not ref.line_of_sight((3, 5), (3, 3))  # straight through the wall
    assert not ref.line_of_sight((2, 5), (4, 3))  # through the wall's centre
    assert ref.line_of_sight((1, 5), (3, 3))  # grazes the wall's corner only
    assert ref.line_of_sight((3, 3), (3, 1))


def test_goal_test_hand_cases():
    ref, _ = load("tabular5")  # goal at (2, 2), goal_distance 1
    assert ref.is_goal((2, 1, 0), "goal")  # one cell south, facing north
    assert not ref.is_goal((2, 1, 2), "goal")  # facing away
    assert ref.is_goal((1, 1, 0), "goal")  # diagonal, lateral offset 1
    assert ref.bfs_distance((2, 1, 2), "goal") == 2  # two turns


def test_replay_and_spl():
    ref, _ = load("open7")
    cells, final = ref.replay((1, 1, 0), [0, 0, 5, 0, 3, 1])
    assert cells == [(1, 2), (1, 3), (1, 3), (2, 3), (2, 2), (1, 2)]
    assert final == (1, 2, 1)
    assert reference.spl([(True, 4, 2), (False, 9, 3), (True, 0, 0)]) == pytest.approx(0.5)


def test_percentile_rule():
    assert tail_percentile(39) is None  # median alone under forty samples
    assert tail_percentile(40) == 75
    assert tail_percentile(99) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(199) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99
    assert tail_percentile(10_000) == 99.9
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile([7.0], 90) == 7.0


class _Looping:
    """Stands in for HiemAgent: every option takes one step and the
    episode never reports done, as when an achieved sub-goal is re-chosen."""

    def run_option(self, atomic, done_at=None):
        atomic += 1
        return None, None, None, atomic, atomic == done_at, False

    def run_episode(self, done_at=None):
        atomic, done = 0, False
        while not done:
            _, _, _, atomic, done, _ = self.run_option(atomic, done_at)
        return atomic


def test_step_cap_guard_stops_a_runaway_query():
    original = _Looping.run_option
    with StepCapGuard(_Looping, 5):
        with pytest.raises(StepCapExceeded) as stop:
            _Looping().run_episode()
        assert stop.value.steps == 6 and stop.value.cap == 5
        assert _Looping().run_episode(done_at=5) == 5  # within the cap: untouched
    assert _Looping.run_option is original
    assert _Looping().run_episode(done_at=50) == 50


def test_tracer_self_time_and_restore():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def outer():
        leaf()
        leaf()
        time.sleep(0.01)

    leaf = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(outer, "outer")
    outer()
    stats, edges = tracer.layer_stats()
    assert stats["leaf"][0] == 2 and stats["outer"][0] == 1
    _, _, start, end = tracer.arrays()  # spans in call order: outer, leaf, leaf
    dur = end - start
    assert stats["outer"][1] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert stats["outer"][1] >= 0.01 and stats["leaf"][1] >= 0.02
    assert edges == {("leaf", "outer"): 2, ("outer", None): 1}
    assert list(tracer.root) == [0, 0, 0]

    before = gridworld.World.step
    with Tracer().installed():
        assert gridworld.World.step is not before
    assert gridworld.World.step is before


def test_distance_bands_cover_every_pair_in_order():
    ref, _ = load("open7")
    bands = ref.distance_bands(4)
    pairs = [pair for band in bands for pair in band]
    assert len(pairs) == sum(len(ref.distances(label)) for label in ref.labels)
    assert max(len(b) for b in bands) - min(len(b) for b in bands) <= 1
    dist = [ref.bfs_distance(pose, label) for pose, label in pairs]
    assert dist == sorted(dist)
