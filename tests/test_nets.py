import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiem.nets import (
    Adam,
    Mlp,
    NumericsError,
    ReplayBuffer,
    Schedule,
    Sgd,
    SharedTrunkNet,
    clone_net,
    sigmoid,
    sync_target,
    train_q_step,
    train_step,
    train_term_step,
)


def numeric_grad(f, params, eps=1e-6):
    """Central finite differences of a scalar function over a param list."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            fp = f()
            p[idx] = orig - eps
            fm = f()
            p[idx] = orig
            g[idx] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestForward:
    def test_zero_net_zero_output(self):
        rng = np.random.default_rng(0)
        net = Mlp([4, 8, 3], rng)
        for w in net.W:
            w[...] = 0.0
        out = net.forward(np.ones((2, 4)))
        assert (out == 0).all()

    def test_identity_linear_layer(self):
        rng = np.random.default_rng(0)
        net = Mlp([3, 3], rng)
        net.W[0][...] = np.eye(3)
        net.b[0][...] = 0.0
        x = np.array([[0.5, -1.0, 2.0]])
        assert np.allclose(net.forward(x), x)

    def test_dimension_mismatch_faults(self):
        net = Mlp([4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.ones((1, 5)))

    def test_sigmoid_output_in_unit_interval(self):
        rng = np.random.default_rng(3)
        net = Mlp([5, 8, 4], rng, output="sigmoid")
        out = net.forward(rng.normal(size=(10, 5)))
        assert ((out > 0) & (out < 1)).all()

    def test_sigmoid_bitwise_equals_the_masked_two_branch_form(self):
        def reference(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(5)
        cases = [rng.normal(size=(rows, cols)) * scale
                 for rows in (1, 3, 32) for cols in (1, 7, 65)
                 for scale in (1e-3, 1.0, 30.0, 800.0)]
        cases.append(np.array([[0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0,
                                -745.0, 1e3, -1e3, 1e308, -1e308, np.inf, -np.inf]]))
        for x in cases:
            with np.errstate(over="ignore"):
                want = reference(x)
            got = sigmoid(x)
            assert got.shape == x.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestGradients:
    @pytest.mark.parametrize(
        "sizes,output",
        [([6, 4], "linear"), ([6, 8, 4], "linear"), ([5, 16, 8, 3], "linear"),
         ([6, 8, 4], "sigmoid")],
    )
    def test_mlp_backward_matches_finite_differences(self, sizes, output):
        rng = np.random.default_rng(42)
        net = Mlp(sizes, rng, output=output)
        x = rng.normal(size=(3, sizes[0]))
        gout = rng.normal(size=(3, sizes[-1]))

        def scalar():
            return float((net.forward(x) * gout).sum())

        scalar()
        analytic = net.backward(gout)
        numeric = numeric_grad(scalar, net.params())
        for a, n in zip(analytic, numeric):
            assert rel_err(a, n) < 1e-4

    def test_shared_trunk_q_backward(self):
        rng = np.random.default_rng(1)
        net = SharedTrunkNet(7, [8, 6], 4, rng)
        x = rng.normal(size=(3, 7))
        gout = rng.normal(size=(3, 4))

        def scalar():
            return float((net.q_values(x) * gout).sum())

        scalar()
        analytic = net.q_backward(gout)
        numeric = numeric_grad(scalar, net.params())
        for a, n in zip(analytic, numeric):
            assert rel_err(a, n) < 1e-4

    def test_shared_trunk_term_backward(self):
        rng = np.random.default_rng(2)
        net = SharedTrunkNet(7, [8, 6], 4, rng)
        x = rng.normal(size=(3, 7))
        gout = rng.normal(size=(3, 4))

        def scalar():
            return float((net.term_probs(x) * gout).sum())

        term = net.term_probs(x)
        analytic = net.term_backward(gout, term)
        numeric = numeric_grad(scalar, net.params())
        for a, n in zip(analytic, numeric):
            assert rel_err(a, n) < 1e-4


    def test_each_head_backward_zeroes_the_other_head(self):
        rng = np.random.default_rng(3)
        net = SharedTrunkNet(7, [8, 6], 4, rng)
        x = rng.normal(size=(3, 7))
        gout = rng.normal(size=(3, 4))
        # alternate, so that each call overwrites what the other wrote
        for _ in range(2):
            term = net.term_probs(x)
            *_, qW, qb, tW, tb = net.term_backward(gout, term)
            assert (qW == 0).all() and (qb == 0).all()
            assert (tW != 0).any() and (tb != 0).any()
            net.q_values(x)
            *_, qW, qb, tW, tb = net.q_backward(gout)
            assert (tW == 0).all() and (tb == 0).all()
            assert (qW != 0).any() and (qb != 0).any()

    def test_gradients_are_views_of_one_vector(self):
        for net in _nets(4):
            assert net.grad is None
            x = np.ones((2, net.in_dim))
            if isinstance(net, SharedTrunkNet):
                net.q_values(x)
                grads = net.q_backward(np.ones((2, net.out_dim)))
            else:
                net.forward(x)
                grads = net.backward(np.ones((2, net.out_dim)))
            assert net.grad.shape == net.flat.shape
            assert [g.shape for g in grads] == net.shapes()
            assert all(np.shares_memory(g, net.grad) for g in grads)
            assert (np.concatenate([g.ravel() for g in grads]) == net.grad).all()
            assert clone_net(net).grad is None


class TestTrainStep:
    def test_hand_checked_scalar_sgd(self):
        # y = w*x, x=1, target=1, w=0, lr=0.1: d/dw (1-w)^2 = -2 -> w = 0.2
        net = Mlp([1, 1], np.random.default_rng(0))
        net.W[0][...] = 0.0
        net.b[0][...] = 0.0
        loss = train_step(net, Sgd(lr=0.1), np.array([[1.0]]), [0], [1.0])
        assert loss == pytest.approx(1.0)
        assert net.W[0][0, 0] == pytest.approx(0.2)
        assert net.b[0][0] == pytest.approx(0.2)

    def test_zero_error_keeps_parameters(self):
        rng = np.random.default_rng(5)
        net = Mlp([3, 4, 2], rng)
        x = rng.normal(size=(4, 3))
        preds = net.forward(x)
        before = [p.copy() for p in net.params()]
        train_step(net, Sgd(lr=0.5), x, [1, 0, 1, 0], preds[np.arange(4), [1, 0, 1, 0]])
        for b, a in zip(before, net.params()):
            assert np.allclose(b, a)

    def test_only_indexed_head_propagates(self):
        rng = np.random.default_rng(6)
        net = Mlp([3, 4], rng)
        x = rng.normal(size=(1, 3))
        before_other = net.W[0][:, [0, 1, 3]].copy()
        train_step(net, Sgd(lr=0.1), x, [2], [5.0])
        assert np.allclose(net.W[0][:, [0, 1, 3]], before_other)
        assert not np.allclose(net.W[0][:, 2], before_other[:, 0])

    def test_loss_non_increasing_small_lr(self):
        rng = np.random.default_rng(7)
        net = Mlp([4, 8, 3], rng)
        x = rng.normal(size=(8, 4))
        idx = rng.integers(0, 3, size=8)
        tgt = rng.normal(size=8)
        opt = Sgd(lr=1e-3)
        losses = [train_step(net, opt, x, idx, tgt) for _ in range(50)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_non_finite_target_faults(self):
        net = Mlp([2, 2], np.random.default_rng(0))
        with pytest.raises(NumericsError):
            train_step(net, Sgd(0.1), np.ones((1, 2)), [0], [np.nan])

    def test_adam_converges_on_regression(self):
        rng = np.random.default_rng(8)
        net = Mlp([2, 16, 1], rng)
        opt = Adam(lr=1e-2)
        x = rng.normal(size=(32, 2))
        tgt = 0.3 * x[:, 0] - 0.7 * x[:, 1]
        for _ in range(800):
            loss = train_step(net, opt, x, np.zeros(32, dtype=int), tgt)
        assert loss < 1e-3


def _reference_adam(params, grads_seq, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Adam applied one parameter array at a time, as separate arrays."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_seq, start=1):
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= b1
            mi += (1 - b1) * g
            vi *= b2
            vi += (1 - b2) * g * g
            p -= lr * (mi / (1 - b1**t)) / (np.sqrt(vi / (1 - b2**t)) + eps)
    return params


def _nets(seed):
    rng = np.random.default_rng(seed)
    return [Mlp([5, 7, 3], rng), SharedTrunkNet(5, [6, 4], 3, rng)]


class TestFlatParameters:
    def test_params_are_views_into_flat_in_order(self):
        for net in _nets(20):
            assert (np.concatenate([p.ravel() for p in net.params()]) == net.flat).all()
            net.W[0][0, 1] = 7.5
            assert net.flat[1] == 7.5
            net.flat[-1] = -2.5
            assert (net.tb if isinstance(net, SharedTrunkNet) else net.b[-1])[-1] == -2.5

    def test_initial_weights_drawn_in_per_array_order(self):
        mlp, trunk = _nets(21)
        rng = np.random.default_rng(21)
        draw = lambda a, b: rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b))
        for w, shape in zip(mlp.W, [(5, 7), (7, 3)]):
            assert (w == draw(*shape)).all()
        for w, shape in zip(trunk.W + [trunk.qW, trunk.tW], [(5, 6), (6, 4), (4, 3), (4, 3)]):
            assert (w == draw(*shape)).all()
        for net in (mlp, trunk):
            assert all((p == 0).all() for p in net.params() if p.ndim == 1)

    def test_adam_matches_per_parameter_reference_bitwise(self):
        rng = np.random.default_rng(22)
        for net in _nets(22):
            grads_seq = [[rng.normal(size=p.shape) for p in net.params()] for _ in range(5)]
            expected = _reference_adam(net.params(), grads_seq)
            opt = Adam()
            for grads in grads_seq:
                opt.step(net.flat, np.concatenate([g.ravel() for g in grads]))
            assert opt.t == 5 and opt.m.shape == opt.v.shape == net.flat.shape
            for got, want in zip(net.params(), expected):
                assert got.tobytes() == want.tobytes()

    def test_train_steps_reuse_one_gradient_vector(self):
        rng = np.random.default_rng(24)
        for net in _nets(24):
            target = clone_net(net)
            x = rng.normal(size=(4, 5))
            step = train_step if isinstance(net, Mlp) else train_q_step
            step(net, Adam(), x, [0, 1, 2, 0], rng.normal(size=4))
            grad = net.grad
            step(net, Sgd(0.1), x, [0, 1, 2, 0], rng.normal(size=4))
            assert net.grad is grad and target.grad is None

    def test_clone_owns_its_vector(self):
        for net in _nets(23):
            twin = clone_net(net)
            assert type(twin) is type(net) and twin.shapes() == net.shapes()
            assert (twin.flat == net.flat).all()
            assert not np.shares_memory(twin.flat, net.flat)
            net.flat += 1.0
            assert all(np.shares_memory(p, twin.flat) for p in twin.params())
            assert not (twin.flat == net.flat).any()


class TestSyncTarget:
    def test_sync_copies_bitwise_and_is_idempotent(self):
        rng = np.random.default_rng(9)
        net = Mlp([3, 5, 2], rng)
        target = clone_net(net)
        train_step(net, Sgd(0.1), rng.normal(size=(2, 3)), [0, 1], [1.0, 0.0])
        sync_target(net, target)
        x = rng.normal(size=(4, 3))
        assert (net.forward(x) == target.forward(x)).all()
        sync_target(net, target)
        assert (net.forward(x) == target.forward(x)).all()

    def test_target_frozen_after_online_update(self):
        rng = np.random.default_rng(10)
        net = Mlp([3, 5, 2], rng)
        target = clone_net(net)
        sync_target(net, target)
        x = rng.normal(size=(4, 3))
        frozen = target.forward(x).copy()
        train_step(net, Sgd(0.5), rng.normal(size=(2, 3)), [0, 1], [3.0, -1.0])
        assert (target.forward(x) == frozen).all()
        assert not (net.forward(x) == frozen).all()

    def test_architecture_mismatch_faults(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            sync_target(Mlp([3, 4], rng), Mlp([3, 5], rng))


class TestReplayBuffer:
    def test_single_item_sampled_repeatedly(self):
        buf = ReplayBuffer(4)
        buf.push(x="a")
        assert buf.sample(4, np.random.default_rng(0))["x"].tolist() == ["a"] * 4

    def test_fifo_eviction(self):
        buf = ReplayBuffer(5)
        for i in range(12):
            buf.push(x=i, y=2.0 * i)
        cols = buf.columns()
        assert len(buf) == 5
        # slot order: rows 10 and 11 overwrote the two oldest slots
        assert cols["x"].tolist() == [10, 11, 7, 8, 9]
        assert cols["y"].tolist() == [20.0, 22.0, 14.0, 16.0, 18.0]

    def test_empty_sample_faults(self):
        with pytest.raises(ValueError):
            ReplayBuffer(3).sample(1, np.random.default_rng(0))

    def test_seeded_sampling_reproducible(self):
        buf = ReplayBuffer(10)
        for i in range(10):
            buf.push(x=i)
        a = buf.sample(6, np.random.default_rng(123))
        b = buf.sample(6, np.random.default_rng(123))
        assert a["x"].tolist() == b["x"].tolist()

    def test_sample_draws_the_rows_of_one_integers_call(self):
        # the rng stream a list-backed buffer drew: one
        # `rng.integers(0, len, size=n)` per sample, indexing slot order
        buf = ReplayBuffer(8)
        for i in range(13):
            buf.push(x=i)
        slots = buf.columns()["x"]
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for n in (1, 6, 32):
            rows = buf.sample(n, rng)
            assert rows["x"].tolist() == slots[ref.integers(0, 8, size=n)].tolist()
        assert rng.random() == ref.random()

    def test_rows_keep_their_dtypes_and_shapes(self):
        buf = ReplayBuffer(3)
        for i in range(4):
            buf.push(ids=(i, i + 1, i + 2), r=float(i), done=i % 2 == 1,
                     mask=np.array([True, i > 1]))
        cols = buf.columns()
        assert {k: (c.dtype, c.shape) for k, c in cols.items()} == {
            "ids": (np.int64, (3, 3)), "r": (np.float64, (3,)),
            "done": (np.bool_, (3,)), "mask": (np.bool_, (3, 2)),
        }
        assert cols["ids"].tolist() == [[3, 4, 5], [1, 2, 3], [2, 3, 4]]
        assert cols["mask"].tolist() == [[True, True], [True, False], [True, True]]

    def test_row_with_other_fields_faults(self):
        buf = ReplayBuffer(3)
        buf.push(x=1, y=2)
        with pytest.raises(ValueError):
            buf.push(x=1)
        with pytest.raises(ValueError):
            buf.push(x=1, y=2, z=3)

    def test_sampling_uniform_chi_square(self):
        # 1e5 draws from 10 items: count deviations within 3 sigma
        buf = ReplayBuffer(10)
        for i in range(10):
            buf.push(x=i)
        rng = np.random.default_rng(77)
        n = 100_000
        draws = buf.sample(n, rng)["x"]
        counts = np.bincount(draws, minlength=10)
        expect = n / 10
        sigma = np.sqrt(n * 0.1 * 0.9)
        assert (np.abs(counts - expect) < 3 * sigma).all()


class TestSchedule:
    def test_endpoints(self):
        s = Schedule(1.0, 0.0, 200)
        assert s.value(0) == 1.0
        assert s.value(200) == 0.0
        assert s.value(400) == 0.0
        assert s.value(-5) == 1.0

    def test_linear_midpoint(self):
        s = Schedule(1.0, 0.0, 200)
        assert s.value(100) == pytest.approx(0.5)

    @given(st.integers(0, 1000), st.integers(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing(self, e, horizon):
        s = Schedule(1.0, 0.05, horizon)
        assert s.value(e + 1) <= s.value(e) + 1e-12
        assert 0.05 <= s.value(e) <= 1.0
