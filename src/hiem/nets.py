"""Function approximation: fully-connected nets with manual backprop,
optimizers, target-network sync, replay buffer and decay schedules.

Everything is float64 numpy.  Each net keeps all its parameters in one
contiguous vector, `flat`; its weight and bias arrays are views into it.
A trained net keeps its gradient the same way, in `grad`.
Losses are mean squared error over the batch on the selected output head
only.  A NaN/Inf parameter after an update is a hard fault.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np


class NumericsError(RuntimeError):
    """Non-finite parameters, targets or activations."""


def relu(x):
    return np.maximum(0.0, x)


def sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    that exp never overflows; both forms share e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _he_init(fan_in, fan_out, rng):
    scale = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, scale, size=(fan_in, fan_out))


def _layer_shapes(sizes):
    return [s for a, b in zip(sizes[:-1], sizes[1:]) for s in ((a, b), (b,))]


class _FlatNet:
    """Base of the nets: every parameter is a view into one contiguous
    float64 vector, `flat`, laid out in params() order.  A subclass lists
    the parameter shapes in `shapes()` and names the views in `_bind`.

    A trained net's gradient is one more vector in the same layout,
    `grad`, allocated at its first backward; each backward overwrites it
    through views shaped like params(), and the optimizer steps from it.
    A target net runs no backward and has none."""

    grad = None

    def _init_flat(self, rng):
        """Bind a zero vector, then draw the weight matrices from rng in
        params() order; biases stay zero."""
        self._bind(np.zeros(sum(math.prod(s) for s in self.shapes())))
        for p in self.params():
            if p.ndim == 2:
                p[...] = _he_init(*p.shape, rng)

    def views(self, vec):
        """Views into a vector of `flat`'s length, shaped like params()."""
        out, at = [], 0
        for shape in self.shapes():
            n = math.prod(shape)
            out.append(vec[at:at + n].reshape(shape))
            at += n
        return out

    def params(self):
        return self.views(self.flat)

    def _grad_views(self):
        """`grad` as views shaped like params(); `grad` is allocated on the
        first call."""
        if self.grad is None:
            self.grad = np.empty_like(self.flat)
            self._gviews = self.views(self.grad)
        return self._gviews

    @property
    def in_dim(self):
        return self.sizes[0]


class Mlp(_FlatNet):
    """Fully-connected net: relu hidden layers, linear or sigmoid output.

    `sizes` lists all layer widths including input and output, e.g.
    [155, 128, 64, 6].  Two layers ([in, out]) make a plain linear map,
    which is what the tabular tests use.
    """

    def __init__(self, sizes, rng, output="linear"):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if output not in ("linear", "sigmoid"):
            raise ValueError(f"unknown output activation {output!r}")
        self.sizes = list(int(s) for s in sizes)
        self.output = output
        self._init_flat(rng)
        self._cache = None

    def shapes(self):
        return _layer_shapes(self.sizes)

    def _bind(self, flat):
        self.flat = flat
        p = self.views(flat)
        self.W, self.b = p[0::2], p[1::2]

    @property
    def out_dim(self):
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[1]} != expected {self.in_dim}")
        acts = [x]
        h = x
        n = len(self.W)
        for i in range(n):
            z = h @ self.W[i] + self.b[i]
            if i < n - 1:
                h = relu(z)
            elif self.output == "sigmoid":
                h = sigmoid(z)
            else:
                h = z
            acts.append(h)
        self._cache = acts
        if not np.isfinite(h).all():
            raise NumericsError("non-finite network output")
        return h

    def backward(self, grad_out: np.ndarray):
        """Gradients of sum(grad_out * output) w.r.t. params, using the
        activations cached by the last forward, written into `grad`.
        Returns `grad`'s views, aligned with params()."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        acts = self._cache
        n = len(self.W)
        g = np.asarray(grad_out, dtype=np.float64)
        if self.output == "sigmoid":
            y = acts[-1]
            g = g * y * (1.0 - y)
        grads = self._grad_views()
        for i in range(n - 1, -1, -1):
            np.matmul(acts[i].T, g, out=grads[2 * i])
            g.sum(axis=0, out=grads[2 * i + 1])
            if i > 0:
                g = g @ self.W[i].T
                g = g * (acts[i] > 0)
        return grads


class SharedTrunkNet(_FlatNet):
    """Relu trunk with two heads: a linear Q head over sub-goals and a
    logistic termination head.  Both heads backprop into the trunk."""

    def __init__(self, in_dim, hidden, n_out, rng):
        if not hidden:
            raise ValueError("shared-trunk net needs at least one hidden layer")
        self.sizes = [int(in_dim)] + [int(h) for h in hidden]
        self.n_out = int(n_out)
        self._init_flat(rng)
        self._cache = None

    def shapes(self):
        head = [(self.sizes[-1], self.n_out), (self.n_out,)]
        return _layer_shapes(self.sizes) + head + head

    def _bind(self, flat):
        self.flat = flat
        *trunk, self.qW, self.qb, self.tW, self.tb = self.views(flat)
        self.W, self.b = trunk[0::2], trunk[1::2]

    @property
    def out_dim(self):
        return self.n_out

    def _trunk(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[1]} != expected {self.in_dim}")
        acts = [x]
        h = x
        for W, b in zip(self.W, self.b):
            h = relu(h @ W + b)
            acts.append(h)
        self._cache = acts
        return h

    def q_values(self, x) -> np.ndarray:
        h = self._trunk(x)
        return h @ self.qW + self.qb

    def term_probs(self, x) -> np.ndarray:
        h = self._trunk(x)
        return sigmoid(h @ self.tW + self.tb)

    def forward_both(self, x):
        h = self._trunk(x)
        return h @ self.qW + self.qb, sigmoid(h @ self.tW + self.tb)

    def _trunk_backward(self, g, grads):
        """Write the trunk's gradients for the hidden-layer gradient `g`
        into `grads`, the trunk's views of `grad`."""
        acts = self._cache
        for i in range(len(self.W) - 1, -1, -1):
            g = g * (acts[i + 1] > 0)
            np.matmul(acts[i].T, g, out=grads[2 * i])
            g.sum(axis=0, out=grads[2 * i + 1])
            if i > 0:
                g = g @ self.W[i].T

    def q_backward(self, grad_q):
        """Param grads for sum(grad_q * q_values), written into `grad`:
        trunk and Q head; the termination head's are zero.  Returns
        `grad`'s views, aligned with params()."""
        grad_q = np.asarray(grad_q)
        *trunk, qW, qb, tW, tb = grads = self._grad_views()
        self._trunk_backward(grad_q @ self.qW.T, trunk)
        np.matmul(self._cache[-1].T, grad_q, out=qW)
        grad_q.sum(axis=0, out=qb)
        tW.fill(0.0)
        tb.fill(0.0)
        return grads

    def term_backward(self, grad_t, term_out):
        """Param grads for sum(grad_t * term_probs), written into `grad`:
        trunk and termination head; the Q head's are zero.  Returns
        `grad`'s views, aligned with params()."""
        gz = np.asarray(grad_t) * term_out * (1.0 - term_out)
        *trunk, qW, qb, tW, tb = grads = self._grad_views()
        self._trunk_backward(gz @ self.tW.T, trunk)
        qW.fill(0.0)
        qb.fill(0.0)
        np.matmul(self._cache[-1].T, gz, out=tW)
        gz.sum(axis=0, out=tb)
        return grads


# ----- optimizers -----------------------------------------------------------


class Sgd:
    def __init__(self, lr=1e-3):
        self.lr = float(lr)

    def step(self, flat, grad):
        """Update a net's `flat` vector from its gradient vector `grad`."""
        flat -= self.lr * grad


class Adam:
    """Adaptive-moment gradient descent over one net's `flat` vector: one
    first moment `m`, one second moment `v` and one step count `t`.  The
    moments are allocated on the first step."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = None
        self.v = None
        self.t = 0
        # one scratch vector, reused: a new vector the size of a net per
        # step or per operation costs page faults
        self._w = None

    def step(self, flat, grad):
        """Update a net's `flat` vector from its gradient vector `grad`
        (the net's `grad`, in the same layout).  The step
        lr * mhat / (sqrt(vhat) + eps) is computed in place, one operation
        at a time in the expression's order, in the scratch vector and in
        `grad`, which it overwrites once the moments have read it."""
        if self._w is None:
            self._w = np.empty_like(flat)
        if self.m is None:
            self.m = np.zeros_like(flat)
            self.v = np.zeros_like(flat)
        g, w = grad, self._w
        self.t += 1
        m, v, t = self.m, self.v, self.t
        m *= self.beta1
        m += np.multiply(1 - self.beta1, g, out=w)
        v *= self.beta2
        np.multiply(1 - self.beta2, g, out=w)
        v += np.multiply(w, g, out=w)
        vhat = np.divide(v, 1 - self.beta2**t, out=g)
        denom = np.add(np.sqrt(vhat, out=vhat), self.eps, out=vhat)
        mhat = np.divide(m, 1 - self.beta1**t, out=w)
        step = np.multiply(self.lr, mhat, out=w)
        flat -= np.divide(step, denom, out=w)


def make_optimizer(kind: str, lr: float):
    if kind == "adam":
        return Adam(lr=lr)
    if kind == "sgd":
        return Sgd(lr=lr)
    raise ValueError(f"unknown optimizer {kind!r}")


# ----- training primitives --------------------------------------------------


def _batch_inputs(inputs, indices, values, what):
    """The step's arrays as float64/int64; rejects an empty batch and
    non-finite `values`."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise ValueError("empty batch")
    if not np.isfinite(values).all():
        raise NumericsError(f"non-finite {what}: {values}")
    return inputs, indices, values


def _step(net, optimizer) -> None:
    """One optimizer step on `net` from its `grad`; faults if it leaves a
    parameter non-finite."""
    optimizer.step(net.flat, net.grad)
    if not np.isfinite(net.flat).all():
        raise NumericsError(
            f"non-finite parameters after update in net with sizes {net.sizes}"
        )


def _regression_step(net, optimizer, inputs, indices, targets, forward, backward):
    inputs, indices, targets = _batch_inputs(inputs, indices, targets,
                                             "regression targets")
    out = forward(inputs)
    n = inputs.shape[0]
    rows = np.arange(n)
    err = out[rows, indices] - targets
    loss = float(np.mean(err**2))
    grad_out = np.zeros_like(out)
    grad_out[rows, indices] = 2.0 * err / n
    backward(grad_out)
    _step(net, optimizer)
    return loss


def train_step(net: Mlp, optimizer, inputs, indices, targets) -> float:
    """One gradient step on mean squared error between net(inputs)[indices]
    and targets.  Only the indexed heads' errors propagate.  Returns the
    pre-step loss."""
    return _regression_step(net, optimizer, inputs, indices, targets,
                            net.forward, net.backward)


def train_q_step(net: SharedTrunkNet, optimizer, inputs, indices, targets) -> float:
    """Same selected-head MSE step for the shared-trunk net's Q head."""
    return _regression_step(net, optimizer, inputs, indices, targets,
                            net.q_values, net.q_backward)


def train_term_step(net: SharedTrunkNet, optimizer, inputs, indices, advantages):
    """Advantage-weighted termination step: descend mean(term[idx] * adv).
    Positive advantage pushes the termination probability down, negative
    pushes it up.  The advantage is a constant (no gradient through it)."""
    inputs, indices, advantages = _batch_inputs(inputs, indices, advantages,
                                                "advantages")
    term = net.term_probs(inputs)
    n = inputs.shape[0]
    grad_t = np.zeros_like(term)
    grad_t[np.arange(n), indices] = advantages / n
    net.term_backward(grad_t, term)
    _step(net, optimizer)


def sync_target(online, target) -> None:
    """Bitwise copy of online parameters into the target twin."""
    if online.shapes() != target.shapes():
        raise ValueError("architecture mismatch between online and target nets")
    target.flat[...] = online.flat


def clone_net(net):
    """A twin of `net` with its own copy of the flat vector, and no
    gradient vector."""
    twin = copy.copy(net)
    twin._bind(net.flat.copy())
    twin._cache = None
    twin.grad = None
    return twin


# ----- replay ---------------------------------------------------------------


class ReplayBuffer:
    """FIFO ring store with uniform with-replacement sampling.

    A row is a set of named fields, each a number or a fixed-shape array.
    Each field is kept in one array of `capacity` rows, allocated at the
    first push with that value's dtype and shape; a full store overwrites
    its oldest row."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._columns: dict[str, np.ndarray] = {}
        self._size = 0
        self._cursor = 0

    def __len__(self):
        return self._size

    def push(self, **row) -> None:
        if not self._columns:
            self._columns = {
                k: np.zeros((self.capacity, *np.shape(v)), dtype=np.asarray(v).dtype)
                for k, v in row.items()
            }
        elif row.keys() != self._columns.keys():
            raise ValueError(f"row fields {sorted(row)} differ from the store's "
                             f"{sorted(self._columns)}")
        for k, v in row.items():
            self._columns[k][self._cursor] = v
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> dict:
        """`n` rows drawn uniformly with replacement, as {field: array
        with one row per draw}."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=n)
        return {k: c[idx] for k, c in self._columns.items()}

    def columns(self) -> dict:
        """Every stored row, as {field: copy of its array}, in slot order:
        push order until the ring wraps."""
        return {k: c[:self._size].copy() for k, c in self._columns.items()}


# ----- schedules ------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Linear interpolation from start to end over `horizon` episodes,
    clamped outside [0, horizon]."""

    start: float
    end: float
    horizon: int

    def value(self, episode: int) -> float:
        if episode <= 0 or self.horizon <= 0:
            return self.start if episode <= 0 else self.end
        if episode >= self.horizon:
            return self.end
        frac = episode / self.horizon
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class ConstantSchedule:
    level: float

    def value(self, episode: int) -> float:
        return self.level
