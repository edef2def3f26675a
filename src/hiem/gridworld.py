"""Deterministic grid object-search environment.

Coordinates are (x, y) with x growing east and y growing north; cell (0, 0)
is the south-west corner.  The agent occupies one free cell and faces one of
four headings.  All transitions are deterministic: moving into a wall (or a
blocking object, or out of bounds) leaves the position unchanged and flags a
collision, turns always succeed.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Optional

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid maps, poses or episode specifications."""


class Heading(IntEnum):
    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3


# unit vector (dx, dy) for each heading
HEADING_VECS = {
    Heading.NORTH: (0, 1),
    Heading.EAST: (1, 0),
    Heading.SOUTH: (0, -1),
    Heading.WEST: (-1, 0),
}


class Action(IntEnum):
    MOVE_FORWARD = 0
    MOVE_BACKWARD = 1
    MOVE_LEFT = 2
    MOVE_RIGHT = 3
    TURN_LEFT = 4
    TURN_RIGHT = 5


N_ACTIONS = 6

# translation actions expressed as a rotation (in right turns) applied to the
# current heading vector
_MOVE_ROT = {
    Action.MOVE_FORWARD: 0,
    Action.MOVE_RIGHT: 1,
    Action.MOVE_BACKWARD: 2,
    Action.MOVE_LEFT: 3,
}


def _rot_vec(vec: tuple[int, int], right_turns: int) -> tuple[int, int]:
    dx, dy = vec
    for _ in range(right_turns % 4):
        dx, dy = dy, -dx
    return dx, dy


@dataclass(frozen=True)
class GridMap:
    """Occupancy grid.  `walls[x, y]` is True for wall cells."""

    width: int
    height: int
    walls: np.ndarray

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise ConfigError("map must be at least 3x3")
        if self.walls.shape != (self.width, self.height):
            raise ConfigError("walls array shape does not match width/height")
        border = (
            self.walls[0, :].all()
            and self.walls[-1, :].all()
            and self.walls[:, 0].all()
            and self.walls[:, -1].all()
        )
        if not border:
            raise ConfigError("map border must be walls")
        if self.walls.all():
            raise ConfigError("map has no free cell")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_wall(self, x: int, y: int) -> bool:
        if not self.in_bounds(x, y):
            return True
        return bool(self.walls[x, y])

    def is_free(self, x: int, y: int) -> bool:
        return not self.is_wall(x, y)


@dataclass(frozen=True)
class ObjectInstance:
    object_id: int
    label: int
    cell: tuple[int, int]
    blocking: bool = False


@dataclass(frozen=True)
class AgentPose:
    """Hashes as `(x, y, heading)` does; the hash is computed once, since
    every table of a `World` is keyed by pose."""

    x: int
    y: int
    heading: Heading

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.x, self.y, self.heading)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class State:
    pose: AgentPose
    steps: int = 0


@dataclass(frozen=True)
class EpisodeSpec:
    start: AgentPose
    goal_label: int
    seed: int = 0
    max_atomic_steps: int = 500

    def __post_init__(self):
        if self.max_atomic_steps <= 0:
            raise ConfigError("max_atomic_steps must be positive")


@dataclass(frozen=True, eq=False)
class Observation:
    """Egocentric view: `visibility[label, d-1, o + fov_width//2]` marks an
    instance of `label` at depth d, lateral offset o, with clear line of
    sight.  `depth[o + fov_width//2]` is the distance to the first wall in
    that column (capped at the view depth).  Observations compare and hash
    by identity, so each can key a table of what is derived from it."""

    visibility: np.ndarray
    depth: np.ndarray
    visible_labels: frozenset[int]


def line_of_sight(grid: GridMap, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True when the segment between the centers of cells `a` and `b` crosses
    no wall cell interior.  Cells touched only at a corner do not block."""
    if a == b:
        return True
    ax, ay = a[0] + 0.5, a[1] + 0.5
    bx, by = b[0] + 0.5, b[1] + 0.5
    dx, dy = bx - ax, by - ay
    # parameter values where the segment crosses a gridline
    ts = [0.0, 1.0]
    if dx != 0:
        x0, x1 = sorted((ax, bx))
        gx = np.arange(np.ceil(x0), np.floor(x1) + 1)
        ts.extend((gx - ax) / dx)
    if dy != 0:
        y0, y1 = sorted((ay, by))
        gy = np.arange(np.ceil(y0), np.floor(y1) + 1)
        ts.extend((gy - ay) / dy)
    ts = sorted(t for t in ts if -1e-12 <= t <= 1 + 1e-12)
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 < 1e-12:
            continue
        tm = (t0 + t1) / 2
        cx, cy = int(np.floor(ax + tm * dx)), int(np.floor(ay + tm * dy))
        if (cx, cy) in (a, b):
            continue
        if grid.is_wall(cx, cy):
            return False
    return True


class World:
    """Immutable map + object layout + view parameters.

    Episode state lives in the small `State` value passed in and out of the
    step functions, so many episodes can run concurrently on one World.

    Every answer that depends only on the pose is computed on first use and
    kept in a table: the transitions under each action, the observation,
    the labels whose goal test holds, and the distance to each label.  A
    World must therefore not be changed after it is built.

    The tables hold one canonical `AgentPose` object per pose: `reset` and
    `step` hand back only canonical poses, so an episode's lookups match
    their keys by identity, with no field-by-field comparison.
    """

    def __init__(
        self,
        grid: GridMap,
        objects: Iterable[ObjectInstance],
        label_names: list[str],
        fov_depth: int = 5,
        fov_width: int = 5,
        goal_distance: int = 2,
    ):
        self.grid = grid
        self.objects = list(objects)
        self.label_names = list(label_names)
        self.fov_depth = int(fov_depth)
        self.fov_width = int(fov_width)
        self.goal_distance = int(goal_distance)
        if self.fov_width % 2 == 0:
            raise ConfigError("fov_width must be odd")
        ids = [o.object_id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ConfigError("duplicate object_id")
        self._by_cell: dict[tuple[int, int], list[ObjectInstance]] = {}
        self._cells_by_label: dict[int, list[tuple[int, int]]] = {}
        self._blocked = set()
        for o in self.objects:
            if not grid.in_bounds(*o.cell) or grid.is_wall(*o.cell):
                raise ConfigError(f"object {o.object_id} placed on wall/out of bounds")
            if not 0 <= o.label < len(label_names):
                raise ConfigError(f"object {o.object_id} has unknown label {o.label}")
            self._by_cell.setdefault(o.cell, []).append(o)
            self._cells_by_label.setdefault(o.label, []).append(o.cell)
            if o.blocking:
                self._blocked.add(o.cell)
        # per-pose tables, filled on first use
        self._poses: dict[AgentPose, AgentPose] = {}  # the canonical object per pose
        self._cells: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple per cell
        self._moves: dict[AgentPose, tuple] = {}  # (next pose, collided) per action
        self._views: dict[AgentPose, Observation] = {}
        self._goals: dict[AgentPose, frozenset[int]] = {}  # labels whose goal test holds
        self._distances: dict[int, np.ndarray] = {}  # per label, [x, y, heading]
        self._free: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def labels_present(self) -> list[int]:
        return sorted(self._cells_by_label)

    def label_cells(self, label: int) -> list[tuple[int, int]]:
        return self._cells_by_label.get(label, [])

    def passable(self, x: int, y: int) -> bool:
        return self.grid.is_free(x, y) and (x, y) not in self._blocked

    def free_cells(self) -> list[tuple[int, int]]:
        if self._free is None:
            self._free = tuple(
                (x, y)
                for x in range(self.grid.width)
                for y in range(self.grid.height)
                if self.passable(x, y)
            )
        return list(self._free)

    def _canonical(self, pose: AgentPose) -> AgentPose:
        return self._poses.setdefault(pose, pose)

    def cell(self, pose: AgentPose) -> tuple[int, int]:
        """The (x, y) cell of `pose`, as one tuple object shared by every
        caller, so that long episode paths hold no copies."""
        xy = (pose.x, pose.y)
        return self._cells.setdefault(xy, xy)

    # ----- episode dynamics -------------------------------------------------

    def reset(self, spec: EpisodeSpec) -> State:
        pose = self._canonical(spec.start)
        if not self.passable(pose.x, pose.y):
            raise ConfigError(f"start cell {(pose.x, pose.y)} is not free")
        if not self.label_cells(spec.goal_label):
            name = (
                self.label_names[spec.goal_label]
                if 0 <= spec.goal_label < self.n_labels
                else spec.goal_label
            )
            raise ConfigError(f"goal label {name!r} absent from map")
        return State(pose=pose, steps=0)

    def step(self, state: State, action: Action) -> tuple[State, bool]:
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"{action!r} is not a valid Action")
        moves = self._moves.get(state.pose)
        if moves is None:
            moves = self._fill_moves(state.pose)
        pose, collided = moves[action]
        return State(pose=pose, steps=state.steps + 1), collided

    def _fill_moves(self, pose: AgentPose) -> tuple:
        pose = self._canonical(pose)
        heading = Heading(pose.heading)
        moves = []
        for action in Action:
            if action in (Action.TURN_LEFT, Action.TURN_RIGHT):
                delta = 1 if action == Action.TURN_RIGHT else -1
                nxt = AgentPose(pose.x, pose.y, Heading((heading + delta) % 4))
                moves.append((self._canonical(nxt), False))
                continue
            dx, dy = _rot_vec(HEADING_VECS[heading], _MOVE_ROT[action])
            x, y = pose.x + dx, pose.y + dy
            if self.passable(x, y):
                moves.append((self._canonical(AgentPose(x, y, heading)), False))
            else:
                moves.append((pose, True))
        moves = self._moves[pose] = tuple(moves)
        return moves

    # ----- observation ------------------------------------------------------

    def fov_cells(self, pose: AgentPose):
        """Yield (d, o, x, y) for the egocentric window, d in 1..fov_depth,
        o in -(fov_width//2)..fov_width//2."""
        fwd = HEADING_VECS[pose.heading]
        right = _rot_vec(fwd, 1)
        half = self.fov_width // 2
        for d in range(1, self.fov_depth + 1):
            for o in range(-half, half + 1):
                x = pose.x + d * fwd[0] + o * right[0]
                y = pose.y + d * fwd[1] + o * right[1]
                yield d, o, x, y

    def observe(self, state: State) -> Observation:
        """The view from the state's pose.  One read-only Observation per
        pose is shared by every caller."""
        view = self._views.get(state.pose)
        if view is None:
            view = self._fill_view(state.pose)
        return view

    def _fill_view(self, pose: AgentPose) -> Observation:
        pose = self._canonical(pose)
        half = self.fov_width // 2
        vis = np.zeros((self.n_labels, self.fov_depth, self.fov_width), dtype=np.uint8)
        depth = np.full(self.fov_width, self.fov_depth, dtype=np.int64)
        fwd = HEADING_VECS[pose.heading]
        right = _rot_vec(fwd, 1)
        for o in range(-half, half + 1):
            for d in range(1, self.fov_depth + 1):
                x = pose.x + d * fwd[0] + o * right[0]
                y = pose.y + d * fwd[1] + o * right[1]
                if self.grid.is_wall(x, y):
                    depth[o + half] = d
                    break
        agent_cell = (pose.x, pose.y)
        for d, o, x, y in self.fov_cells(pose):
            if not self.grid.in_bounds(x, y):
                continue
            for obj in self._by_cell.get((x, y), []):
                if line_of_sight(self.grid, agent_cell, (x, y)):
                    vis[obj.label, d - 1, o + half] = 1
        visible = frozenset(int(l) for l in np.flatnonzero(vis.any(axis=(1, 2))))
        vis.setflags(write=False)
        depth.setflags(write=False)
        view = self._views[pose] = Observation(
            visibility=vis, depth=depth, visible_labels=visible
        )
        return view

    # ----- success predicates ----------------------------------------------

    def is_goal_state(self, state: State, goal_label: int) -> bool:
        """True when an instance of the label sits in the view window within
        `goal_distance` (Chebyshev) with clear line of sight."""
        labels = self._goals.get(state.pose)
        if labels is None:
            labels = self._fill_goals(state.pose)
        return goal_label in labels

    def _fill_goals(self, pose: AgentPose) -> frozenset[int]:
        pose = self._canonical(pose)
        agent_cell = (pose.x, pose.y)
        labels = set()
        for d, o, x, y in self.fov_cells(pose):
            if max(d, abs(o)) > self.goal_distance:
                continue
            for obj in self._by_cell.get((x, y), []):
                if line_of_sight(self.grid, agent_cell, (x, y)):
                    labels.add(obj.label)
        labels = self._goals[pose] = frozenset(labels)
        return labels

    # ----- exact shortest-path oracle --------------------------------------

    def shortest_path_actions(
        self, start: AgentPose, predicate: Callable[[State], bool]
    ) -> Optional[list[Action]]:
        """Minimal atomic-action sequence (BFS over pose space, unit cost)
        from `start` to any pose satisfying `predicate`, or None."""
        s0 = State(pose=start, steps=0)
        if predicate(s0):
            return []
        seen = {start}
        q = deque([(start, [])])
        while q:
            pose, path = q.popleft()
            for action in Action:
                nxt, _ = self.step(State(pose=pose, steps=0), action)
                np_ = nxt.pose
                if np_ in seen:
                    continue
                seen.add(np_)
                npath = path + [action]
                if predicate(State(pose=np_, steps=0)):
                    return npath
                q.append((np_, npath))
        return None

    def shortest_path_length(
        self, start: AgentPose, predicate: Callable[[State], bool]
    ) -> Optional[int]:
        path = self.shortest_path_actions(start, predicate)
        return None if path is None else len(path)

    def shortest_path_to_label(self, start: AgentPose, goal_label: int) -> Optional[int]:
        """Fewest atomic actions from `start` to a goal state of the label,
        or None when no goal state is reachable."""
        if not self.grid.in_bounds(start.x, start.y):
            return None  # the border is all wall: nothing past it is reached
        field = self._distances.get(goal_label)
        if field is None:
            field = self._fill_distances(goal_label)
        d = int(field[start.x, start.y, start.heading])
        return None if d < 0 else d

    def _fill_distances(self, goal_label: int) -> np.ndarray:
        """BFS from every goal pose of the label along reversed transitions:
        `field[x, y, heading]` is the distance from that pose, -1 where no
        goal pose is reached.  A move only enters a passable cell and a turn
        keeps the cell, so in-bounds poses step only to in-bounds poses and
        this is the forward search's answer from each of them, walls and
        blocked cells included."""
        field = np.full((self.grid.width, self.grid.height, 4), -1, dtype=np.int32)
        preds: dict[AgentPose, list[AgentPose]] = {}
        q = deque()
        for x in range(self.grid.width):
            for y in range(self.grid.height):
                for h in Heading:
                    pose = AgentPose(x, y, h)
                    for nxt, _ in self._moves.get(pose) or self._fill_moves(pose):
                        preds.setdefault(nxt, []).append(pose)
                    if self.is_goal_state(State(pose=pose), goal_label):
                        field[x, y, h] = 0
                        q.append(pose)
        while q:
            pose = q.popleft()
            d = field[pose.x, pose.y, pose.heading] + 1
            for prev in preds.get(pose, ()):
                if field[prev.x, prev.y, prev.heading] < 0:
                    field[prev.x, prev.y, prev.heading] = d
                    q.append(prev)
        field.setflags(write=False)
        self._distances[goal_label] = field
        return field
