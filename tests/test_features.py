"""The codec's and the sub-goal spaces' shared per-pose arrays.

Frames, masks and one-hots are computed once and handed out read-only to
every caller; each must equal what a fresh computation gives.
"""
import numpy as np
import pytest

from hiem.agent import AnonymousOptionSpace, LabelSubgoalSpace
from hiem.features import FeatureCodec
from hiem.gridworld import Observation, State

from test_gridworld import all_poses


@pytest.fixture(params=["tabular5", "open7", "ray7", "bench15"])
def world(request):
    return request.getfixturevalue(request.param)


def fresh_frame(world, obs):
    return np.concatenate([obs.visibility.ravel(), obs.depth / world.fov_depth])


def fresh_mask(space, visible_labels):
    mask = np.zeros(space.n, dtype=bool)
    mask[list(visible_labels)] = True
    mask[space.random_index] = True
    return mask


def assert_read_only(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1


def test_frames_are_shared_and_equal_a_fresh_encoding(world):
    codec = FeatureCodec(world, world.n_labels + 1, history_len=4)
    frames = {}
    for pose in all_poses(world):
        obs = world.observe(State(pose))
        frame = codec.obs_vec(obs)
        assert frame.shape == (codec.frame_dim,) and frame.dtype == np.float64
        assert np.array_equal(frame, fresh_frame(world, obs)), pose
        assert codec.obs_vec(obs) is frame
        assert codec.obs_vec(world.observe(State(pose))) is frame
        assert_read_only(frame)
        frames[id(frame)] = frame
    # one frame per observation, and the World shares one per pose
    assert len(frames) == len(all_poses(world))


def test_masks_are_shared_per_visible_label_set(world):
    space = LabelSubgoalSpace(world)
    masks = {}
    for pose in all_poses(world):
        visible = world.observe(State(pose)).visible_labels
        mask = space.valid_mask(visible)
        assert mask.dtype == bool
        assert np.array_equal(mask, fresh_mask(space, visible)), pose
        assert space.valid_mask(visible) is mask
        assert space.valid_mask(sorted(visible)) is mask
        assert_read_only(mask)
        masks.setdefault(visible, mask)
        assert masks[visible] is mask
    anonymous = AnonymousOptionSpace(3)
    mask = anonymous.valid_mask(frozenset())
    assert np.array_equal(mask, np.ones(3, dtype=bool))
    assert anonymous.valid_mask(frozenset({0})) is mask
    assert_read_only(mask)


def test_onehots_and_history_padding_are_shared(world):
    codec = FeatureCodec(world, world.n_labels + 1, history_len=3)
    for g in range(world.n_labels):
        onehot = codec.goal_onehot(g)
        assert np.array_equal(onehot, np.eye(world.n_labels)[g])
        assert codec.goal_onehot(g) is onehot
        assert_read_only(onehot)
    for sg in range(world.n_labels + 1):
        onehot = codec.subgoal_onehot(sg)
        assert np.array_equal(onehot, np.eye(world.n_labels + 1)[sg])
        assert codec.subgoal_onehot(sg) is onehot
        assert_read_only(onehot)
    history = codec.new_history()
    assert len(history) == history.maxlen == 3
    assert all(f is history[0] for f in history)
    assert np.array_equal(history[0], np.zeros(codec.frame_dim))
    assert codec.new_history()[0] is history[0]
    assert_read_only(history[0])


def test_inputs_built_from_shared_arrays_are_fresh(bench15):
    codec = FeatureCodec(bench15, bench15.n_labels + 1, history_len=2)
    frame = codec.obs_vec(bench15.observe(State(all_poses(bench15)[40])))
    x = codec.low_ext_input(frame, 1, 2)
    x[:] = 7.0  # the caller's own array: the shared ones are untouched
    assert np.array_equal(codec.goal_onehot(1), np.eye(bench15.n_labels)[1])
    assert codec.subgoal_onehot(2)[2] == 1.0 and frame.max() <= 1.0


def test_frame_ids_index_one_table_that_doubles_when_full(tabular5):
    codec = FeatureCodec(tabular5, tabular5.n_labels + 1, history_len=2)
    rows = len(codec.frames)
    assert rows == 1 + len(all_poses(tabular5))
    # the padding frame is the table's row 0, the zero frame's id
    assert np.shares_memory(codec.new_history()[0], codec.frames[0])
    rng = np.random.default_rng(0)
    shape = (tabular5.n_labels, tabular5.fov_depth, tabular5.fov_width)
    # more hand-made observations than the table has rows
    views = [Observation(rng.integers(0, 2, size=shape, dtype=np.uint8),
                         rng.integers(1, tabular5.fov_depth + 1, size=shape[2]),
                         frozenset())
             for _ in range(rows + 3)]
    frames = [codec.obs_vec(obs) for obs in views]
    assert [codec.frame_id(obs) for obs in views] == list(range(1, rows + 4))
    assert len(codec.frames) == 2 * rows
    assert not codec.frames[0].any()
    for obs, frame in zip(views, frames):
        assert codec.obs_vec(obs) is frame
        assert np.array_equal(frame, fresh_frame(tabular5, obs))
        assert np.array_equal(codec.frames[codec.frame_id(obs)], frame)
        assert_read_only(frame)


def test_high_inputs_from_a_deque_a_stack_or_frame_ids_agree(bench15):
    codec = FeatureCodec(bench15, bench15.n_labels + 1, history_len=3)
    poses = all_poses(bench15)
    history, ids, rows = codec.new_history(), [0, 0, 0], []
    for i, g in zip((5, 40, 41, 90), (0, 3, 3, 5)):
        obs = bench15.observe(State(poses[i]))
        history.append(codec.obs_vec(obs))
        ids = ids[1:] + [codec.frame_id(obs)]
        x = codec.high_input(history, g)
        assert x.shape == (codec.high_dim,)
        assert np.array_equal(x, codec.high_input(codec.stack_history(history), g))
        rows.append((list(ids), g, x))
    mat = codec.high_inputs(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    assert np.array_equal(mat, np.stack([r[2] for r in rows]))
    cur = codec.current_frames(mat)
    assert np.shares_memory(cur, mat)
    assert np.array_equal(cur, np.stack([codec.frames[r[0][-1]] for r in rows]))
