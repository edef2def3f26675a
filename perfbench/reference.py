"""Reference model of the gridworld, written apart from `hiem.gridworld`.

The benchmark checks the program's outputs against this module: its own
map-file parser, transition rule, exact line-of-sight test, goal test and a
breadth-first search over (x, y, heading).  It imports nothing from `hiem`,
so a fault in the program's environment cannot hide in both places at once.

Conventions (the map format's): x grows east, y grows north, the first map
row is the highest y.  Headings are 0 north, 1 east, 2 south, 3 west.
Actions are 0 forward, 1 backward, 2 strafe left, 3 strafe right, 4 turn
left, 5 turn right.  A move into a wall, a blocking object or off the map
leaves the position unchanged.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from pathlib import Path

HEADING_VECS = ((0, 1), (1, 0), (0, -1), (-1, 0))
N_ACTIONS = 6
# strafe actions as right turns applied to the heading vector
_MOVE_TURNS = {0: 0, 3: 1, 1: 2, 2: 3}


def _turn_right(vec, turns=1):
    dx, dy = vec
    for _ in range(turns % 4):
        dx, dy = dy, -dx
    return dx, dy


def fixture_path(root: Path, name: str) -> Path:
    return Path(root) / "src" / "hiem" / "fixtures" / f"{name}.map"


class RefMap:
    """A parsed map fixture with the reference dynamics."""

    def __init__(self, text: str):
        sections: dict[str, list[str]] = {}
        current = None
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("[") and stripped.endswith("]"):
                current = stripped[1:-1].strip().lower()
                sections[current] = []
            elif current is not None and stripped and not stripped.startswith(";"):
                sections[current].append(line.rstrip() if current == "map" else stripped)
        rows = sections["map"]
        self.height = len(rows)
        self.width = len(rows[0])
        legend = {}
        for entry in sections.get("legend", []):
            char, value = (part.strip() for part in entry.split("=", 1))
            words = value.split()
            legend[char] = (words[0], words[1:] == ["blocking"])
        params = {"fov_depth": 5, "fov_width": 5, "goal_distance": 2}
        for entry in sections.get("params", []):
            key, value = (part.strip() for part in entry.split("=", 1))
            params[key] = int(value)
        self.fov_depth = params["fov_depth"]
        self.fov_width = params["fov_width"]
        self.goal_distance = params["goal_distance"]

        self.walls: set[tuple[int, int]] = set()
        self.blocked: set[tuple[int, int]] = set()
        self.objects: dict[tuple[int, int], list[str]] = {}
        for row_i, row in enumerate(rows):
            y = self.height - 1 - row_i
            for x, ch in enumerate(row):
                if ch == "#":
                    self.walls.add((x, y))
                elif ch != ".":
                    name, blocking = legend[ch]
                    self.objects.setdefault((x, y), []).append(name)
                    if blocking:
                        self.blocked.add((x, y))
        self.labels = sorted({n for names in self.objects.values() for n in names})
        self._distances: dict[str, dict] = {}

    @classmethod
    def load(cls, path) -> "RefMap":
        return cls(Path(path).read_text())

    # ----- dynamics ---------------------------------------------------------

    def is_wall(self, x: int, y: int) -> bool:
        return not (0 <= x < self.width and 0 <= y < self.height) or (x, y) in self.walls

    def passable(self, x: int, y: int) -> bool:
        return not self.is_wall(x, y) and (x, y) not in self.blocked

    def poses(self):
        return [
            (x, y, h)
            for x in range(self.width)
            for y in range(self.height)
            if self.passable(x, y)
            for h in range(4)
        ]

    def step(self, pose, action: int):
        x, y, h = pose
        if action == 4:
            return x, y, (h - 1) % 4
        if action == 5:
            return x, y, (h + 1) % 4
        dx, dy = _turn_right(HEADING_VECS[h], _MOVE_TURNS[action])
        if self.passable(x + dx, y + dy):
            return x + dx, y + dy, h
        return x, y, h

    # ----- visibility -------------------------------------------------------

    def line_of_sight(self, a, b) -> bool:
        """Exact test: the open segment between the two cell centres enters
        the interior of no wall cell other than `a` and `b`.  Touching a
        wall's edge or corner does not block."""
        if a == b:
            return True
        # doubled coordinates keep the cell centres on integers
        p = (2 * a[0] + 1, 2 * a[1] + 1)
        d = (2 * (b[0] - a[0]), 2 * (b[1] - a[1]))
        for cx in range(min(a[0], b[0]), max(a[0], b[0]) + 1):
            for cy in range(min(a[1], b[1]), max(a[1], b[1]) + 1):
                if (cx, cy) in (a, b) or not self.is_wall(cx, cy):
                    continue
                if self._crosses_interior(p, d, (2 * cx, 2 * cy)):
                    return False
        return True

    @staticmethod
    def _crosses_interior(p, d, lo) -> bool:
        # Liang-Barsky clip of p + t*d, t in [0, 1], to the closed square
        # [lo, lo + 2]^2; a clipped piece of positive length whose midpoint
        # is strictly inside means the segment enters the interior.
        t0, t1 = Fraction(0), Fraction(1)
        for axis in (0, 1):
            lo_a, hi_a = lo[axis], lo[axis] + 2
            if d[axis] == 0:
                if not lo_a <= p[axis] <= hi_a:
                    return False
                continue
            ta = Fraction(lo_a - p[axis], d[axis])
            tb = Fraction(hi_a - p[axis], d[axis])
            t0, t1 = max(t0, min(ta, tb)), min(t1, max(ta, tb))
        if t0 >= t1:
            return False
        tm = (t0 + t1) / 2
        return all(lo[ax] < p[ax] + tm * d[ax] < lo[ax] + 2 for ax in (0, 1))

    def is_goal(self, pose, label: str) -> bool:
        """An instance of `label` in the view window, within `goal_distance`
        (Chebyshev, in depth and lateral offset), with clear line of sight."""
        x, y, h = pose
        fwd = HEADING_VECS[h]
        right = _turn_right(fwd)
        half = self.fov_width // 2
        for depth in range(1, self.fov_depth + 1):
            for off in range(-half, half + 1):
                if max(depth, abs(off)) > self.goal_distance:
                    continue
                cell = (x + depth * fwd[0] + off * right[0], y + depth * fwd[1] + off * right[1])
                if label in self.objects.get(cell, ()) and self.line_of_sight((x, y), cell):
                    return True
        return False

    # ----- shortest paths ---------------------------------------------------

    def distances(self, label: str) -> dict:
        """Minimal action count from every pose to a goal pose of `label`
        (poses that cannot reach one are absent), by breadth-first search
        backwards from the goal poses."""
        if label not in self._distances:
            poses = self.poses()
            preds: dict = {pose: [] for pose in poses}
            for pose in poses:
                for action in range(N_ACTIONS):
                    preds[self.step(pose, action)].append(pose)
            dist = {pose: 0 for pose in poses if self.is_goal(pose, label)}
            queue = deque(dist)
            while queue:
                pose = queue.popleft()
                for prev in preds[pose]:
                    if prev not in dist:
                        dist[prev] = dist[pose] + 1
                        queue.append(prev)
            self._distances[label] = dist
        return self._distances[label]

    def bfs_distance(self, start, label: str):
        return self.distances(label).get(tuple(start))

    def distance_bands(self, n: int):
        """Every reachable (pose, label) pair, sorted by BFS distance and cut
        into n bands of equal size."""
        pairs = sorted(
            (dist, pose, label)
            for label in self.labels
            for pose, dist in self.distances(label).items()
        )
        size = len(pairs) / n
        return [[(pose, label) for _, pose, label in pairs[round(i * size):round((i + 1) * size)]]
                for i in range(n)]

    def replay(self, start, actions):
        """Cells visited after each action, and the final pose."""
        pose = tuple(start)
        cells = []
        for action in actions:
            pose = self.step(pose, action)
            cells.append((pose[0], pose[1]))
        return cells, pose


def spl(outcomes) -> float:
    """(1/N) * sum S_i * l_i / max(l_i, p_i) over (success, steps, minimal)
    triples; an l_i = 0 success counts 1."""
    total = 0.0
    for success, steps, minimal in outcomes:
        if success:
            total += 1.0 if minimal == 0 else minimal / max(minimal, steps)
    return total / len(outcomes)
