import dataclasses
import itertools
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiem.gridworld import (
    Action,
    AgentPose,
    ConfigError,
    EpisodeSpec,
    GridMap,
    Heading,
    ObjectInstance,
    HEADING_VECS,
    State,
    World,
    _MOVE_ROT,
    _rot_vec,
    line_of_sight,
)
from hiem.mapfile import parse_map_text

from conftest import los_oracle

# the object room is sealed off from the left column
SEALED = """\
[map]
#######
#.#...#
#.#.a.#
#.#####
#.....#
#.....#
#######
[legend]
a = amp
"""


def open_world(size=7, objects=(), **kw):
    walls = np.zeros((size, size), dtype=bool)
    walls[0, :] = walls[-1, :] = walls[:, 0] = walls[:, -1] = True
    grid = GridMap(size, size, walls)
    return World(grid, objects, label_names=kw.pop("label_names", ["lamp"]), **kw)


class TestGridMap:
    def test_rejects_tiny_map(self):
        with pytest.raises(ConfigError):
            GridMap(2, 5, np.ones((2, 5), dtype=bool))

    def test_rejects_open_border(self):
        walls = np.zeros((5, 5), dtype=bool)
        with pytest.raises(ConfigError):
            GridMap(5, 5, walls)

    def test_rejects_all_walls(self):
        with pytest.raises(ConfigError):
            GridMap(3, 3, np.ones((3, 3), dtype=bool))


class TestStep:
    def test_move_forward_north(self):
        w = open_world()
        s = State(AgentPose(1, 1, Heading.NORTH))
        s2, collided = w.step(s, Action.MOVE_FORWARD)
        assert (s2.pose.x, s2.pose.y, s2.pose.heading) == (1, 2, Heading.NORTH)
        assert not collided
        assert s2.steps == 1

    def test_blocked_move_sets_collided(self):
        w = open_world()
        s = State(AgentPose(1, 1, Heading.SOUTH))
        s2, collided = w.step(s, Action.MOVE_FORWARD)
        assert (s2.pose.x, s2.pose.y) == (1, 1)
        assert collided
        assert s2.steps == 1

    def test_turn_right(self):
        w = open_world()
        s = State(AgentPose(1, 1, Heading.NORTH))
        s2, collided = w.step(s, Action.TURN_RIGHT)
        assert s2.pose.heading == Heading.EAST
        assert not collided

    def test_turn_left_from_north_is_west(self):
        w = open_world()
        s2, _ = w.step(State(AgentPose(2, 2, Heading.NORTH)), Action.TURN_LEFT)
        assert s2.pose.heading == Heading.WEST

    def test_strafe_right_facing_north_moves_east(self):
        w = open_world()
        s2, _ = w.step(State(AgentPose(2, 2, Heading.NORTH)), Action.MOVE_RIGHT)
        assert (s2.pose.x, s2.pose.y) == (3, 2)

    def test_move_backward_facing_east_moves_west(self):
        w = open_world()
        s2, _ = w.step(State(AgentPose(3, 3, Heading.EAST)), Action.MOVE_BACKWARD)
        assert (s2.pose.x, s2.pose.y) == (2, 3)

    def test_blocking_object_blocks_movement(self):
        w = open_world(objects=[ObjectInstance(0, 0, (2, 3), blocking=True)])
        s2, collided = w.step(State(AgentPose(2, 2, Heading.NORTH)), Action.MOVE_FORWARD)
        assert (s2.pose.x, s2.pose.y) == (2, 2)
        assert collided

    def test_exactly_six_actions(self):
        assert len(list(Action)) == 6


class TestReset:
    def test_identity_initialization(self):
        w = open_world(objects=[ObjectInstance(0, 0, (3, 3))])
        spec = EpisodeSpec(start=AgentPose(1, 1, Heading.NORTH), goal_label=0)
        s = w.reset(spec)
        assert s.pose == spec.start
        assert s.steps == 0

    def test_absent_goal_label_rejected(self):
        w = open_world(objects=[], label_names=["lamp"])
        spec = EpisodeSpec(start=AgentPose(1, 1, Heading.NORTH), goal_label=0)
        with pytest.raises(ConfigError):
            w.reset(spec)

    def test_invalid_start_rejected(self):
        w = open_world(objects=[ObjectInstance(0, 0, (3, 3))])
        spec = EpisodeSpec(start=AgentPose(0, 0, Heading.NORTH), goal_label=0)
        with pytest.raises(ConfigError):
            w.reset(spec)

    def test_reset_deterministic(self):
        w = open_world(objects=[ObjectInstance(0, 0, (3, 3))])
        spec = EpisodeSpec(start=AgentPose(1, 2, Heading.EAST), goal_label=0)
        assert w.reset(spec) == w.reset(spec)


class TestObserve:
    def test_facing_border_wall_all_depth_one(self):
        w = open_world()
        obs = w.observe(State(AgentPose(3, 5, Heading.NORTH)))
        assert (obs.depth == 1).all()
        assert obs.visible_labels == frozenset()

    def test_clear_corridor_object_visible(self, open7):
        # amp at (4, 3); stand south of it facing north
        obs = open7.observe(State(AgentPose(4, 1, Heading.NORTH)))
        amp = open7.label_names.index("amp")
        assert amp in obs.visible_labels
        # depth 2, centered
        assert obs.visibility[amp, 1, open7.fov_width // 2] == 1

    def test_object_behind_agent_invisible(self, open7):
        obs = open7.observe(State(AgentPose(4, 5, Heading.NORTH)))
        assert obs.visible_labels == frozenset()

    def test_ray7_occlusion_hand_traced(self, ray7):
        amp = ray7.label_names.index("amp")
        box = ray7.label_names.index("box")
        # facing the amp from below: visible at depth 1, wall above it at depth 2
        obs = ray7.observe(State(AgentPose(3, 2, Heading.NORTH)))
        assert amp in obs.visible_labels
        assert box not in obs.visible_labels
        assert obs.depth[ray7.fov_width // 2] == 2
        # from (3,5) facing south the wall at (3,4) hides both objects
        obs = ray7.observe(State(AgentPose(3, 5, Heading.SOUTH)))
        assert obs.visible_labels == frozenset()
        assert obs.depth[ray7.fov_width // 2] == 1
        # from (2,5) facing south: diagonal ray to the amp clips the wall cell
        # interior (blocked), but the steeper ray to the box does not
        obs = ray7.observe(State(AgentPose(2, 5, Heading.SOUTH)))
        assert amp not in obs.visible_labels
        assert box in obs.visible_labels

    def test_visibility_matches_independent_ray_trace(self, ray7):
        for x in range(1, 6):
            for y in range(1, 6):
                if not ray7.passable(x, y):
                    continue
                for h in Heading:
                    obs = ray7.observe(State(AgentPose(x, y, h)))
                    expected = set()
                    for d, o, cx, cy in ray7.fov_cells(AgentPose(x, y, h)):
                        for obj in ray7.objects:
                            if obj.cell == (cx, cy) and los_oracle(
                                ray7.grid, (x, y), (cx, cy)
                            ):
                                expected.add(obj.label)
                    assert obs.visible_labels == frozenset(expected), (x, y, h)

    def test_observe_deterministic(self, bench15):
        s = State(AgentPose(7, 6, Heading.EAST))
        a, b = bench15.observe(s), bench15.observe(s)
        assert (a.visibility == b.visibility).all()
        assert (a.depth == b.depth).all()
        assert a.visible_labels == b.visible_labels


class TestLineOfSight:
    @given(
        st.integers(0, 10**9),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_sampling_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = 7
        walls = np.zeros((size, size), dtype=bool)
        walls[0, :] = walls[-1, :] = walls[:, 0] = walls[:, -1] = True
        for _ in range(6):
            walls[rng.integers(1, size - 1), rng.integers(1, size - 1)] = True
        if walls.all():
            return
        grid = GridMap(size, size, walls)
        cells = [(x, y) for x in range(size) for y in range(size)]
        a = cells[rng.integers(len(cells))]
        b = cells[rng.integers(len(cells))]
        assert line_of_sight(grid, a, b) == los_oracle(grid, a, b)


class TestGoalPredicate:
    def test_one_cell_away_facing_true(self, open7):
        amp = open7.label_names.index("amp")
        assert open7.is_goal_state(State(AgentPose(4, 2, Heading.NORTH)), amp)

    def test_adjacent_facing_away_false(self, open7):
        amp = open7.label_names.index("amp")
        assert not open7.is_goal_state(State(AgentPose(4, 2, Heading.SOUTH)), amp)

    def test_beyond_goal_distance_false(self):
        w = open_world(size=9, objects=[ObjectInstance(0, 0, (4, 6))])
        # distance 5 > goal_distance 2, straight ahead
        assert not w.is_goal_state(State(AgentPose(4, 1, Heading.NORTH)), 0)

    def test_occluded_goal_false(self, ray7):
        amp = ray7.label_names.index("amp")
        assert not ray7.is_goal_state(State(AgentPose(3, 5, Heading.SOUTH)), amp)


def brute_force_min_steps(world, start, predicate, max_len):
    """Exhaustive enumeration over action sequences; independent of BFS."""
    if predicate(State(pose=start)):
        return 0
    frontier = [start]
    for length in range(1, max_len + 1):
        nxt = []
        for pose in frontier:
            for a in Action:
                s2, _ = world.step(State(pose=pose), a)
                if predicate(s2):
                    return length
                nxt.append(s2.pose)
        frontier = nxt
    return None


class TestShortestPath:
    def test_start_satisfies_predicate_zero(self, open7):
        amp = open7.label_names.index("amp")
        start = AgentPose(4, 2, Heading.NORTH)
        assert open7.shortest_path_to_label(start, amp) == 0

    def test_matches_brute_force_enumeration(self, ray7):
        amp = ray7.label_names.index("amp")
        pred = lambda s: ray7.is_goal_state(s, amp)
        for x in range(1, 6):
            for y in range(1, 6):
                for h in (Heading.NORTH, Heading.SOUTH):
                    start = AgentPose(x, y, h)
                    bfs = ray7.shortest_path_length(start, pred)
                    if bfs is not None and bfs <= 5:
                        assert bfs == brute_force_min_steps(ray7, start, pred, 5)
                    else:
                        assert brute_force_min_steps(ray7, start, pred, 5) is None

    def test_sealed_goal_unreachable(self):
        w = parse_map_text(SEALED)
        amp = w.label_names.index("amp")
        assert w.shortest_path_to_label(AgentPose(1, 1, Heading.NORTH), amp) is None

    def test_oracle_optimality_exhaustive_small(self, tabular5):
        goal = 0
        pred = lambda s: tabular5.is_goal_state(s, goal)
        for x in range(1, 4):
            for y in range(1, 4):
                for h in Heading:
                    start = AgentPose(x, y, h)
                    bfs = tabular5.shortest_path_length(start, pred)
                    brute = brute_force_min_steps(tabular5, start, pred, 6)
                    if bfs is not None and bfs <= 6:
                        assert bfs == brute
                    else:
                        assert brute is None


class TestProperties:
    @given(st.integers(0, 10**9), st.lists(st.integers(0, 5), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_transition_closure_and_determinism(self, seed, actions):
        from hiem.mapfile import builtin_fixture, load_map

        world = load_map(builtin_fixture("bench15"))
        rng = np.random.default_rng(seed)
        cells = world.free_cells()
        cell = cells[rng.integers(len(cells))]
        pose = AgentPose(cell[0], cell[1], Heading(int(rng.integers(4))))
        s = State(pose=pose)
        trail_a = []
        for a in actions:
            s, _ = world.step(s, Action(a))
            assert world.passable(s.pose.x, s.pose.y)
            trail_a.append(s)
        # bit-for-bit repeatability
        s = State(pose=pose)
        for a, expect in zip(actions, trail_a):
            s, _ = world.step(s, Action(a))
            assert s == expect
            obs1, obs2 = world.observe(s), world.observe(s)
            assert (obs1.visibility == obs2.visibility).all()

    def test_goal_implies_subgoal_of_same_label(self, bench15):
        from hiem.agent import LabelSubgoalSpace

        space = LabelSubgoalSpace(bench15)
        rng = np.random.default_rng(7)
        cells = bench15.free_cells()
        for _ in range(200):
            cell = cells[rng.integers(len(cells))]
            s = State(AgentPose(cell[0], cell[1], Heading(int(rng.integers(4)))))
            for g in bench15.labels_present():
                if bench15.is_goal_state(s, g):
                    assert space.is_achieved(bench15, s, g)


# ----- the per-pose tables against the per-call computations they replaced --
#
# `World` computes each per-pose answer once and keeps it.  The functions
# below are the computations it used to repeat on every call; the tables
# must agree with them on every pose, action and label.

def ref_step(world, state, action):
    pose = state.pose
    action = Action(action)
    if action in (Action.TURN_LEFT, Action.TURN_RIGHT):
        delta = 1 if action == Action.TURN_RIGHT else -1
        heading = Heading((pose.heading + delta) % 4)
        return State(pose=AgentPose(pose.x, pose.y, heading), steps=state.steps + 1), False
    dx, dy = _rot_vec(HEADING_VECS[pose.heading], _MOVE_ROT[action])
    nx, ny = pose.x + dx, pose.y + dy
    if world.passable(nx, ny):
        return State(pose=AgentPose(nx, ny, pose.heading), steps=state.steps + 1), False
    return State(pose=pose, steps=state.steps + 1), True


def ref_observe(world, state):
    pose = state.pose
    half = world.fov_width // 2
    vis = np.zeros((world.n_labels, world.fov_depth, world.fov_width), dtype=np.uint8)
    depth = np.full(world.fov_width, world.fov_depth, dtype=np.int64)
    fwd = HEADING_VECS[pose.heading]
    right = _rot_vec(fwd, 1)
    for o in range(-half, half + 1):
        for d in range(1, world.fov_depth + 1):
            x = pose.x + d * fwd[0] + o * right[0]
            y = pose.y + d * fwd[1] + o * right[1]
            if world.grid.is_wall(x, y):
                depth[o + half] = d
                break
    agent_cell = (pose.x, pose.y)
    for d, o, x, y in world.fov_cells(pose):
        if not world.grid.in_bounds(x, y):
            continue
        for obj in world.objects:
            if obj.cell == (x, y) and line_of_sight(world.grid, agent_cell, (x, y)):
                vis[obj.label, d - 1, o + half] = 1
    visible = frozenset(int(l) for l in np.flatnonzero(vis.any(axis=(1, 2))))
    return vis, depth, visible


def ref_is_goal(world, state, goal_label):
    pose = state.pose
    agent_cell = (pose.x, pose.y)
    for d, o, x, y in world.fov_cells(pose):
        if max(d, abs(o)) > world.goal_distance:
            continue
        for obj in world.objects:
            if (obj.cell == (x, y) and obj.label == goal_label
                    and line_of_sight(world.grid, agent_cell, (x, y))):
                return True
    return False


def ref_shortest_path(step, start, predicate):
    """The forward BFS over poses, with `step(pose, action) -> pose`."""
    if predicate(start):
        return []
    seen = {start}
    q = deque([(start, [])])
    while q:
        pose, path = q.popleft()
        for action in Action:
            nxt = step(pose, action)
            if nxt in seen:
                continue
            seen.add(nxt)
            npath = path + [action]
            if predicate(nxt):
                return npath
            q.append((nxt, npath))
    return None


def blocking_world():
    # a blocking crate in the middle of a 7x7 room, a lamp behind it
    return open_world(
        objects=[ObjectInstance(0, 0, (3, 3), blocking=True), ObjectInstance(1, 1, (3, 5))],
        label_names=["crate", "lamp"],
    )


def all_poses(world):
    """Every pose on every in-bounds cell, passable or not."""
    return [
        AgentPose(x, y, h)
        for x in range(world.grid.width)
        for y in range(world.grid.height)
        for h in Heading
    ]


@pytest.fixture(params=["tabular5", "open7", "ray7", "bench15", "blocking", "sealed"])
def any_world(request):
    if request.param == "blocking":
        return blocking_world()
    if request.param == "sealed":
        return parse_map_text(SEALED)
    return request.getfixturevalue(request.param)


class TestTablesMatchPerCallComputation:
    def test_step_every_pose_and_action(self, any_world):
        w = any_world
        for pose in all_poses(w):
            for a in Action:
                s = State(pose, steps=3)
                assert w.step(s, a) == ref_step(w, s, a), (pose, a)
                assert w.step(s, int(a)) == ref_step(w, s, a)

    def test_observe_every_pose(self, any_world):
        w = any_world
        for pose in all_poses(w):
            obs = w.observe(State(pose))
            vis, depth, visible = ref_observe(w, State(pose))
            assert obs.visibility.dtype == vis.dtype and obs.depth.dtype == depth.dtype
            assert np.array_equal(obs.visibility, vis), pose
            assert np.array_equal(obs.depth, depth), pose
            assert obs.visible_labels == visible, pose
            assert not obs.visibility.flags.writeable and not obs.depth.flags.writeable

    def test_goal_test_and_distance_every_pose_and_label(self, any_world):
        w = any_world
        poses = all_poses(w)
        labels = range(w.n_labels + 1)  # one label more than the map has
        # the reference searches run on pose indices, to keep bench15 quick
        index = {p: i for i, p in enumerate(poses)}
        moves = [[index[ref_step(w, State(p), a)[0].pose] for a in Action] for p in poses]
        for g in labels:
            goal = [ref_is_goal(w, State(p), g) for p in poses]
            for i, pose in enumerate(poses):
                assert w.is_goal_state(State(pose), g) == goal[i], (pose, g)
                # every start, also one World.reset rejects (a wall or a
                # blocked cell), gets the forward search's answer
                path = ref_shortest_path(lambda j, a: moves[j][a], i, goal.__getitem__)
                expected = None if path is None else len(path)
                assert w.shortest_path_to_label(pose, g) == expected, (pose, g)

    def test_distance_from_off_the_map(self, any_world):
        # the border is all wall, so a pose off the map reaches no goal
        w = any_world
        for pose in (AgentPose(-1, 1, Heading.EAST), AgentPose(w.grid.width, 0, Heading.WEST)):
            for g in range(w.n_labels):
                step = lambda p, a: ref_step(w, State(p), a)[0].pose
                assert ref_shortest_path(step, pose, lambda p: ref_is_goal(w, State(p), g)) is None
                assert w.shortest_path_to_label(pose, g) is None

    def test_answers_are_shared(self, bench15):
        s = State(AgentPose(7, 6, Heading.EAST))
        assert bench15.observe(s) is bench15.observe(State(AgentPose(7, 6, Heading.EAST)))
        s2, _ = bench15.step(s, Action.TURN_LEFT)
        assert bench15.cell(s2.pose) is bench15.cell(AgentPose(7, 6, Heading.WEST)) == (7, 6)
        cells = bench15.free_cells()
        n = len(cells)
        cells.clear()  # a caller's copy: the world's own list is untouched
        assert len(bench15.free_cells()) == n > 0

    def test_invalid_action_rejected(self, open7):
        s = State(AgentPose(1, 1, Heading.NORTH))
        for a in (-1, 6):
            with pytest.raises(ValueError):
                open7.step(s, a)


class TestAgentPose:
    def test_hash_is_the_field_tuple_hash(self):
        for x, y, h in itertools.product(range(-1, 4), range(3), Heading):
            a, b = AgentPose(x, y, h), AgentPose(x, y, Heading(int(h)))
            assert a == b and a is not b
            assert hash(a) == hash(b) == hash((x, y, h)) == hash((x, y, int(h)))
        assert AgentPose(1, 2, Heading.EAST) != AgentPose(2, 1, Heading.EAST)

    def test_replace_and_pickle_keep_equality_and_hash(self):
        pose = AgentPose(3, 4, Heading.SOUTH)
        moved = dataclasses.replace(pose, x=5)
        assert moved == AgentPose(5, 4, Heading.SOUTH)
        assert hash(moved) == hash((5, 4, Heading.SOUTH)) != hash(pose)
        assert dataclasses.replace(moved, x=3) == pose
        assert hash(dataclasses.replace(moved, x=3)) == hash(pose)
        back = pickle.loads(pickle.dumps(pose))
        assert back == pose and hash(back) == hash(pose) and back is not pose
        assert {pose: 1}[back] == 1

    def test_hand_built_start_finds_the_tables_of_stepped_poses(self, bench15):
        w = bench15
        label = w.labels_present()[0]
        for pose in all_poses(w):
            # a turn there and back hands back the table's own pose object
            turned, _ = w.step(State(pose), Action.TURN_LEFT)
            stepped, _ = w.step(turned, Action.TURN_RIGHT)
            assert stepped.pose == pose
            assert w.step(turned, Action.TURN_RIGHT)[0].pose is stepped.pose
            built = AgentPose(pose.x, pose.y, Heading(int(pose.heading)))
            if w.passable(pose.x, pose.y):
                spec = EpisodeSpec(start=built, goal_label=label)
                assert w.reset(spec).pose is stepped.pose
            for s in (State(built), State(pickle.loads(pickle.dumps(built)))):
                assert w.observe(s) is w.observe(stepped)
                for g in range(w.n_labels):
                    assert w.is_goal_state(s, g) == w.is_goal_state(stepped, g)
                for a in Action:
                    assert w.step(s, a)[0].pose is w.step(stepped, a)[0].pose
