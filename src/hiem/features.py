"""Feature encoding shared by all learners.

One observation frame flattens to: per-label visibility window (L * D * W
binary entries) followed by the per-column depth channel normalized by the
view depth (W entries).  The high-level nets see a fixed-length history of
frames (zero-padded at episode start) plus a one-hot goal; the low-level
nets see the current frame plus one-hot goal and/or sub-goal context.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .gridworld import Observation, World


class FeatureCodec:
    def __init__(self, world: World, n_subgoal_slots: int, history_len: int = 4):
        self.n_labels = world.n_labels
        self.fov_depth = world.fov_depth
        self.fov_width = world.fov_width
        self.n_subgoal_slots = int(n_subgoal_slots)
        self.history_len = int(history_len)
        self.frame_dim = (
            self.n_labels * self.fov_depth * self.fov_width + self.fov_width
        )

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
        out = np.empty(self.frame_dim)
        nv = self.n_labels * self.fov_depth * self.fov_width
        out[:nv] = obs.visibility.ravel()
        out[nv:] = obs.depth / self.fov_depth
        return out

    def new_history(self) -> deque:
        h = deque(maxlen=self.history_len)
        for _ in range(self.history_len):
            h.append(np.zeros(self.frame_dim))
        return h

    def stack_history(self, history: deque) -> np.ndarray:
        # oldest frame first, current frame last; read-only, so that
        # consecutive transitions can share one stacked history
        out = np.concatenate(list(history))
        out.setflags(write=False)
        return out

    def goal_onehot(self, g: int) -> np.ndarray:
        out = np.zeros(self.n_labels)
        out[g] = 1.0
        return out

    def subgoal_onehot(self, sg: int) -> np.ndarray:
        out = np.zeros(self.n_subgoal_slots)
        out[sg] = 1.0
        return out

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
