"""Feature encoding shared by all learners.

One observation frame flattens to: per-label visibility window (L * D * W
binary entries) followed by the per-column depth channel normalized by the
view depth (W entries).  The high-level nets see a fixed-length history of
frames (zero-padded at episode start) plus a one-hot goal; the low-level
nets see the current frame plus one-hot goal and/or sub-goal context.

Per-step encodings depend only on the observation, goal or sub-goal, so the
codec computes each once and hands out one shared read-only array: the
frame of each `Observation` (the `World` shares one per pose), the zero
frame that pads a new history, and the goal and sub-goal one-hots.  An
eval query keys its memo of net outputs by the identities of these
frames (`agent.FrameMemo`).

Every frame is also a row of one table, `FeatureCodec.frames`, and its
index there is the frame's id; id 0 is the zero frame.  Replay stores a
transition's histories as frame ids, and `high_inputs` turns the ids of
a sample into the high nets' input matrix.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .gridworld import Heading, Observation, World


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class FeatureCodec:
    """Encodes observations, histories, goals and sub-goals as net inputs.

    `obs_vec`, `new_history`'s padding, `goal_onehot` and `subgoal_onehot`
    return shared read-only arrays, each computed once; `stack_history`
    and the `*_input(s)` methods return new arrays.

    `frames` holds every frame as one row, indexed by `frame_id`: row 0 is
    the zero frame, and each `Observation` gets the next row on first use.
    The table starts with one row per in-bounds pose, so a `World`'s
    observations never outgrow it; past that it doubles, and the frames
    handed out before keep the rows of the table they were cut from."""

    def __init__(self, world: World, n_subgoal_slots: int, history_len: int = 4):
        self.n_labels = world.n_labels
        self.fov_depth = world.fov_depth
        self.fov_width = world.fov_width
        self.n_subgoal_slots = int(n_subgoal_slots)
        self.history_len = int(history_len)
        self.frame_dim = (
            self.n_labels * self.fov_depth * self.fov_width + self.fov_width
        )
        grid = world.grid
        self.frames = np.zeros((1 + grid.width * grid.height * len(Heading), self.frame_dim))
        self._ids: dict[Observation, int] = {}
        self._rows = [_read_only(self.frames[0])]  # the frame of each id
        self._goal_rows = tuple(_read_only(np.eye(self.n_labels)))
        self._subgoal_rows = tuple(_read_only(np.eye(self.n_subgoal_slots)))

    @property
    def high_dim(self) -> int:
        return self.history_len * self.frame_dim + self.n_labels

    @property
    def low_ext_dim(self) -> int:
        return self.frame_dim + self.n_labels + self.n_subgoal_slots

    @property
    def low_int_dim(self) -> int:
        return self.frame_dim + self.n_subgoal_slots

    def frame_id(self, obs: Observation) -> int:
        """The observation's row in `frames`, encoded on first use."""
        i = self._ids.get(obs)
        if i is None:
            i = self._ids[obs] = len(self._rows)
            if i == len(self.frames):
                self.frames = np.concatenate([self.frames, np.zeros_like(self.frames)])
            out = self.frames[i]
            nv = self.n_labels * self.fov_depth * self.fov_width
            out[:nv] = obs.visibility.ravel()
            out[nv:] = obs.depth / self.fov_depth
            self._rows.append(_read_only(out))
        return i

    def obs_vec(self, obs: Observation) -> np.ndarray:
        """The observation's frame, read-only and computed once per
        `Observation` object."""
        return self._rows[self.frame_id(obs)]

    def new_history(self) -> deque:
        return deque([self._rows[0]] * self.history_len, maxlen=self.history_len)

    def new_frame_ids(self) -> deque:
        """The ids of a new history's frames and of the frame after it:
        `history_len + 1` slots, each holding the zero frame's id 0."""
        return deque([0] * (self.history_len + 1), maxlen=self.history_len + 1)

    def stack_history(self, history: deque) -> np.ndarray:
        """The history's frames in one new read-only vector, oldest frame
        first and the current frame last."""
        out = np.concatenate(history)
        out.setflags(write=False)
        return out

    def goal_onehot(self, g: int) -> np.ndarray:
        return self._goal_rows[g]

    def subgoal_onehot(self, sg: int) -> np.ndarray:
        return self._subgoal_rows[sg]

    def high_input(self, history, g: int) -> np.ndarray:
        """The high nets' input: the frames of `history`, a history deque or
        a stacked history vector, then the goal one-hot.  A deque is read
        frame by frame, so no stacked history is built on the way."""
        frames = (history,) if isinstance(history, np.ndarray) else history
        return np.concatenate((*frames, self.goal_onehot(g)))

    def low_ext_input(self, frame: np.ndarray, g: int, sg: int) -> np.ndarray:
        return np.concatenate([frame, self.goal_onehot(g), self.subgoal_onehot(sg)])

    def low_int_input(self, frame: np.ndarray, sg: int) -> np.ndarray:
        return np.concatenate([frame, self.subgoal_onehot(sg)])

    # batched variants used by the update rules

    def high_inputs(self, ids: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """One high-net input per row of frame ids, oldest first, and goal,
        in one new matrix: the floats `high_input` gives for the same
        history and goal."""
        n, k = ids.shape
        end = k * self.frame_dim
        out = np.zeros((n, end + self.n_labels))
        out[:, :end] = self.frames[ids].reshape(n, end)
        out[np.arange(n), end + gs] = 1.0
        return out

    def current_frames(self, inputs: np.ndarray) -> np.ndarray:
        """The current frame of each row of a high-net input matrix, as a
        view of its columns."""
        end = self.history_len * self.frame_dim
        return inputs[:, end - self.frame_dim:end]

    def low_ext_inputs(self, frames, gs, sgs) -> np.ndarray:
        n = frames.shape[0]
        goal = np.zeros((n, self.n_labels))
        goal[np.arange(n), gs] = 1.0
        sub = np.zeros((n, self.n_subgoal_slots))
        sub[np.arange(n), sgs] = 1.0
        return np.hstack([frames, goal, sub])

    def low_int_inputs(self, frames, sgs) -> np.ndarray:
        n = frames.shape[0]
        sub = np.zeros((n, self.n_subgoal_slots))
        sub[np.arange(n), sgs] = 1.0
        return np.hstack([frames, sub])
