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
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .gridworld import Observation, World


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class FeatureCodec:
    """Encodes observations, histories, goals and sub-goals as net inputs.

    `obs_vec`, `new_history`'s padding, `goal_onehot` and `subgoal_onehot`
    return shared read-only arrays, each computed once; `stack_history`
    and the `*_input` methods return new arrays."""

    def __init__(self, world: World, n_subgoal_slots: int, history_len: int = 4):
        self.n_labels = world.n_labels
        self.fov_depth = world.fov_depth
        self.fov_width = world.fov_width
        self.n_subgoal_slots = int(n_subgoal_slots)
        self.history_len = int(history_len)
        self.frame_dim = (
            self.n_labels * self.fov_depth * self.fov_width + self.fov_width
        )
        self._frames: dict[Observation, np.ndarray] = {}
        self._zero_frame = _read_only(np.zeros(self.frame_dim))
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

    def obs_vec(self, obs: Observation) -> np.ndarray:
        """The observation's frame, read-only and computed once per
        `Observation` object."""
        out = self._frames.get(obs)
        if out is None:
            out = np.empty(self.frame_dim)
            nv = self.n_labels * self.fov_depth * self.fov_width
            out[:nv] = obs.visibility.ravel()
            out[nv:] = obs.depth / self.fov_depth
            out = self._frames[obs] = _read_only(out)
        return out

    def new_history(self) -> deque:
        return deque([self._zero_frame] * self.history_len, maxlen=self.history_len)

    def stack_history(self, history: deque) -> np.ndarray:
        # oldest frame first, current frame last; read-only, so that
        # consecutive transitions can share one stacked history
        out = np.concatenate(history)
        out.setflags(write=False)
        return out

    def goal_onehot(self, g: int) -> np.ndarray:
        return self._goal_rows[g]

    def subgoal_onehot(self, sg: int) -> np.ndarray:
        return self._subgoal_rows[sg]

    def high_input(self, hist_vec: np.ndarray, g: int) -> np.ndarray:
        return np.concatenate([hist_vec, self.goal_onehot(g)])

    def low_ext_input(self, frame: np.ndarray, g: int, sg: int) -> np.ndarray:
        return np.concatenate([frame, self.goal_onehot(g), self.subgoal_onehot(sg)])

    def low_int_input(self, frame: np.ndarray, sg: int) -> np.ndarray:
        return np.concatenate([frame, self.subgoal_onehot(sg)])

    # batched variants used by the update rules

    def high_inputs(self, hist_mat: np.ndarray, gs: np.ndarray) -> np.ndarray:
        n = hist_mat.shape[0]
        goal = np.zeros((n, self.n_labels))
        goal[np.arange(n), gs] = 1.0
        return np.hstack([hist_mat, goal])

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
