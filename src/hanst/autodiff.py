"""Reverse-mode automatic differentiation over numpy arrays.

Operations executed inside a ``Tape`` context append their result nodes in
execution order, which is by construction a topological order of the
computation graph. ``backward`` walks that list once in reverse, so no
recursion is needed even for long recurrent chains. Outside of a tape,
operations just compute values (inference mode).

All values are 64-bit floats.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    NonFiniteGradientError,
    NonScalarLossError,
    ShapeMismatchError,
)

DTYPE = np.float64

_tape_stack: list["Tape"] = []


class Tensor:
    """A dense n-dimensional value with an optional gradient slot.

    ``parents`` / ``backward_fn`` / ``tape`` are populated only when the
    tensor was produced by an op recorded on an active tape.
    """

    __slots__ = ("values", "grad", "name", "parents", "backward_fn", "tape")

    def __init__(self, values, name: str | None = None):
        self.values = np.asarray(values, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.name = name
        self.parents: tuple[Tensor, ...] = ()
        self.backward_fn = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"{type(self).__name__}(shape={self.shape}{tag})"


class Parameter(Tensor):
    """A trainable leaf tensor."""


class Tape:
    """Wengert list: result nodes in execution (= topological) order.

    Leaving the ``with`` block drops the node list. Each node points back at
    its tape, so the list would otherwise hold the whole graph in a reference
    cycle until the cyclic collector ran; without it the graph is freed as
    soon as the caller lets go of its outputs. Call ``backward`` inside the
    block.
    """

    def __init__(self):
        self.nodes: list[Tensor] | None = []

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack.pop()
        assert popped is self
        self.nodes = None
        return False


def _active_tape() -> Tape | None:
    return _tape_stack[-1] if _tape_stack else None


def _accum(t: Tensor, g: np.ndarray) -> None:
    # the first gradient is copied, never kept: an op may hand the same
    # array to two parents, and the copy is later summed into in place
    if t.grad is None:
        t.grad = np.broadcast_to(g, t.values.shape).copy()
    else:
        t.grad += g


def _record(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(values)
    tape = _active_tape()
    if tape is not None:
        out.parents = parents
        out.backward_fn = backward_fn
        out.tape = tape
        tape.nodes.append(out)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor that contributed to ``loss``.

    Tensors off the path keep ``grad is None``. Each tape node is visited
    exactly once, and its own ``grad`` is released once it has been passed
    on to its parents; leaves keep theirs.
    """
    if loss.values.ndim != 0:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.shape}")
    if loss.tape is None:
        raise ConfigurationError("loss was not recorded on a tape; run the forward pass inside `with Tape():`")
    if loss.tape.nodes is None:
        raise ConfigurationError("the loss's tape is closed; call backward inside its `with Tape():` block")
    loss.grad = np.ones((), dtype=DTYPE)
    for node in reversed(loss.tape.nodes):
        if node.grad is None or node.backward_fn is None:
            continue
        node.backward_fn(node.grad)
        node.grad = None


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    values = a.values @ b.values

    def bwd(g):
        _accum(a, g @ b.values.T)
        _accum(b, a.values.T @ g)

    return _record(values, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a 1-D bias broadcast over the last axis."""
    if a.shape == b.shape:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
    elif b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def bwd(g):
            _accum(a, g)
            _accum(b, g.reshape(-1, b.shape[0]).sum(axis=0))
    else:
        raise ShapeMismatchError(f"add: incompatible shapes {a.shape} + {b.shape}")
    return _record(a.values + b.values, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"sub: incompatible shapes {a.shape} - {b.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(a.values - b.values, (a, b), bwd)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    return _record(t, (a,), lambda g: _accum(a, g * (1.0 - t * t)))


def _logistic(x: np.ndarray) -> np.ndarray:
    # numerically safe: exp only ever sees non-positive arguments. The
    # numerator is 1 where x >= 0 (e <= 1 there) and e elsewhere, which is
    # bitwise the two-branch form without a data-dependent select.
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def abs_(a: Tensor) -> Tensor:
    sign = np.sign(a.values)
    return _record(np.abs(a.values), (a,), lambda g: _accum(a, g * sign))


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Masked softmax over the last axis, stabilized by max-subtraction.

    Masked positions come out exactly 0 and receive exactly zero gradient.
    Every row must have at least one unmasked position.
    """
    x = a.values
    if mask is None:
        m = np.ones(x.shape, dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool)
        if m.shape != x.shape:
            raise ShapeMismatchError(f"softmax: mask shape {m.shape} != input shape {x.shape}")
    if not m.any(axis=-1).all():
        raise DegenerateInputError("softmax: some row has all positions masked")
    shifted = np.where(m, x, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.where(m, np.exp(shifted), 0.0)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (p * g).sum(axis=-1, keepdims=True)
        _accum(a, p * (g - inner))

    return _record(p, (a,), bwd)


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); identity in eval mode."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise ConfigurationError("dropout in training mode requires a seeded rng")
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return _record(a.values * keep, (a,), lambda g: _accum(a, g * keep))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _record(a.values.reshape(shape), (a,), lambda g: _accum(a, g.reshape(old)))


def concat(parts: list[Tensor], axis: int) -> Tensor:
    values = np.concatenate([t.values for t in parts], axis=axis)
    sizes = [t.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            key = [slice(None)] * g.ndim
            key[axis] = slice(lo, hi)
            _accum(t, g[tuple(key)])

    return _record(values, tuple(parts), bwd)


def index_axis(a: Tensor, idx: int, axis: int) -> Tensor:
    """Select one slice along ``axis`` (the axis is dropped)."""
    values = np.take(a.values, idx, axis=axis)

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        key = [slice(None)] * a.ndim
        key[axis] = idx
        a.grad[tuple(key)] += g

    return _record(values, (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    return _record(a.values.mean(), (a,), lambda g: _accum(a, np.broadcast_to(g / n, a.shape)))


def rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2-D table; ids may have any shape."""
    ids = np.asarray(ids)
    values = table.values[ids]

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        np.add.at(table.grad, ids, g)

    return _record(values, (table,), bwd)


def scatter_rows(a: Tensor, index: np.ndarray, n: int) -> Tensor:
    """Rows of a [R, ...] placed at the distinct rows ``index`` of [n, ...]; other rows are 0."""
    values = np.zeros((n,) + a.shape[1:])
    values[index] = a.values
    return _record(values, (a,), lambda g: _accum(a, g[index]))


def weighted_sum(h: Tensor, alpha: Tensor) -> Tensor:
    """Attention pooling: h [B,T,D] weighted by alpha [B,T] -> [B,D]."""
    if h.ndim != 3 or alpha.shape != h.shape[:2]:
        raise ShapeMismatchError(f"weighted_sum: states {h.shape} vs weights {alpha.shape}")
    values = np.einsum("btd,bt->bd", h.values, alpha.values)

    def bwd(g):
        _accum(h, alpha.values[:, :, None] * g[:, None, :])
        _accum(alpha, np.einsum("btd,bd->bt", h.values, g))

    return _record(values, (h, alpha), bwd)


def lstm_sequence(xs: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor, b_hh: Tensor,
                  mask: np.ndarray, reverse: bool = False) -> Tensor:
    """One direction of an LSTM over a whole sequence: xs [B,T,D] -> states [B,T,H].

    Weights are stored transposed, w_ih [D,4H] and w_hh [H,4H]. Gate order
    along the 4H axis: input, forget, cell, output. A step computes
    gates = (x @ w_ih + b_ih) + (h @ w_hh + b_hh); the first term is
    projected for all T steps in one GEMM. The state starts at zero and the
    steps run over positions 0..T-1, or T-1..0 with ``reverse``.

    mask [B,T] gives each row's length: every row must be ones followed by
    zeros (what ``pad_batch`` makes), anything else raises
    ShapeMismatchError. A row takes steps only at its real positions. At a
    padded position its output repeats the carried state: the final state
    going forward, the zero state going backward. The final state of a row is
    therefore its output at position T-1 (or 0 when reversed).

    The recurrence is packed. Rows are stepped longest first, so the k_i rows
    longer than position i are a prefix, and step i runs its GEMM and gate
    arithmetic on those rows alone. Rows that arrive in that order already
    (equal lengths, or a caller that sorts them) are not copied. A product of
    one row can differ in the last bit from the same row of a larger product,
    so the recurrent GEMM takes at least min(2, B) rows and keeps k_i.

    On a tape the op is one node. For backward it saves only the
    post-activation gates [B,T,4H], tanh of the updated cell [B,T,H] and the
    cell states after each step [B,T,H]; the hidden states are its output.
    The backward-through-time does one GEMM per step over the same k_i rows,
    for the gradient through w_hh into the previous state, and one GEMM each
    for the gradients of xs, w_ih and w_hh over all steps, in the caller's
    row order. Without a tape only the running state is kept.
    """
    if xs.ndim != 3:
        raise ShapeMismatchError(f"lstm_sequence: input must be [B,T,D], got {xs.shape}")
    b, t, d = xs.shape
    n = w_hh.shape[0]
    if (w_ih.shape != (d, 4 * n) or w_hh.shape != (n, 4 * n)
            or b_ih.shape != (4 * n,) or b_hh.shape != (4 * n,)):
        raise ShapeMismatchError(
            f"lstm_sequence: input {xs.shape} vs weights {w_ih.shape}, {w_hh.shape}, "
            f"biases {b_ih.shape}, {b_hh.shape}")
    m = np.asarray(mask, dtype=DTYPE)
    if m.shape != (b, t):
        raise ShapeMismatchError(f"lstm_sequence: mask {m.shape} vs input {xs.shape}")
    lengths = m.sum(axis=1).astype(np.int64)
    if not np.array_equal(m, np.arange(t) < lengths[:, None]):
        raise ShapeMismatchError("lstm_sequence: each mask row must be ones followed by zeros")
    active = m.sum(axis=0).astype(np.int64).tolist()   # rows still running at each position
    order = np.argsort(-lengths, kind="stable")   # longest first, ties in their own order
    in_order = bool((order == np.arange(b)).all())
    inverse = np.argsort(order)
    floor = min(2, b)
    steps = range(t - 1, -1, -1) if reverse else range(t)
    x_flat = xs.values.reshape(b * t, d)
    proj = (x_flat @ w_ih.values + b_ih.values).reshape(b, t, 4 * n)
    if not in_order:
        proj = proj[order]

    tape = _active_tape()
    states = np.empty((b, t, n))
    if tape is not None:
        acts = np.empty((b, t, 4 * n))
        tanh_c = np.empty((b, t, n))
        cells = np.empty((b, t, n))
    h = np.zeros((b, n))
    c = np.zeros((b, n))
    for i in steps:
        k = active[i]
        if k:
            rec = (h[:max(k, floor)] @ w_hh.values)[:k] + b_hh.values
            gates = proj[:k, i] + rec
            act = _logistic(gates)
            act[:, 2 * n:3 * n] = np.tanh(gates[:, 2 * n:3 * n])
            c_new = act[:, n:2 * n] * c[:k] + act[:, :n] * act[:, 2 * n:3 * n]
            tc = np.tanh(c_new)
            c[:k] = c_new
            h[:k] = act[:, 3 * n:] * tc
            if tape is not None:
                acts[:k, i] = act
                tanh_c[:k, i] = tc
        states[:, i] = h
        if tape is not None:
            cells[:, i] = c
    if not in_order:
        states = states[inverse]
    if tape is None:
        return Tensor(states)
    prev = 1 if reverse else -1

    def bwd(g):
        if not in_order:
            g = g[order]
        d_gates = np.zeros((b, t, 4 * n))   # padded positions get no gradient
        w_hh_t = w_hh.values.T
        zeros = np.zeros((b, n))
        dh = np.zeros((b, n))
        dc = np.zeros((b, n))
        for i in reversed(steps):
            dh += g[:, i]
            k = active[i]
            if not k:
                continue
            act = acts[:k, i]
            in_g, forget, cell, out = act[:, :n], act[:, n:2 * n], act[:, 2 * n:3 * n], act[:, 3 * n:]
            tc = tanh_c[:k, i]
            c_prev = zeros[:k] if i == steps[0] else cells[:k, i + prev]
            dh_k = dh[:k]
            dc_new = dc[:k] + dh_k * out * (1.0 - tc * tc)
            dg = d_gates[:k, i]
            dg[:, :n] = dc_new * cell * in_g * (1.0 - in_g)
            dg[:, n:2 * n] = dc_new * c_prev * forget * (1.0 - forget)
            dg[:, 2 * n:3 * n] = dc_new * in_g * (1.0 - cell * cell)
            dg[:, 3 * n:] = dh_k * tc * out * (1.0 - out)
            dc[:k] = dc_new * forget
            dh[:k] = (d_gates[:max(k, floor), i] @ w_hh_t)[:k]
        if not in_order:
            d_gates = d_gates[inverse]
        h_prev = np.zeros((b, t, n))
        if reverse:
            h_prev[:, :-1] = states[:, 1:]
        else:
            h_prev[:, 1:] = states[:, :-1]
        flat = d_gates.reshape(b * t, 4 * n)
        _accum(xs, (flat @ w_ih.values.T).reshape(b, t, d))
        _accum(w_ih, x_flat.T @ flat)
        _accum(w_hh, h_prev.reshape(b * t, n).T @ flat)
        d_bias = flat.sum(axis=0)
        _accum(b_ih, d_bias)
        _accum(b_hh, d_bias)

    return _record(states, (xs, w_ih, w_hh, b_ih, b_hh), bwd)


def cross_entropy(logits: Tensor, golds: np.ndarray) -> Tensor:
    """Mean negative log softmax-probability of the gold class."""
    golds = np.asarray(golds, dtype=np.int64)
    if logits.ndim != 2 or golds.shape != (logits.shape[0],):
        raise ShapeMismatchError(f"cross_entropy: logits {logits.shape} vs golds {golds.shape}")
    if golds.size == 0:
        raise DegenerateInputError("cross_entropy: empty batch")
    x = logits.values
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    n = golds.shape[0]
    loss = -logp[np.arange(n), golds].mean()

    def bwd(g):
        grad = np.exp(logp)
        grad[np.arange(n), golds] -= 1.0
        _accum(logits, g * grad / n)

    return _record(loss, (logits,), bwd)


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def xavier_init(shape, variant: str, rng: np.random.Generator) -> np.ndarray:
    """Glorot initialization for a 2-D weight matrix.

    uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))
    normal:  N(0, 2 / (fan_in + fan_out))
    """
    shape = tuple(shape)
    if len(shape) != 2:
        raise ConfigurationError(f"xavier_init expects a 2-D shape, got {shape}")
    fan_sum = shape[0] + shape[1]
    if variant == "uniform":
        a = np.sqrt(6.0 / fan_sum)
        return rng.uniform(-a, a, size=shape).astype(DTYPE)
    if variant == "normal":
        return rng.normal(0.0, np.sqrt(2.0 / fan_sum), size=shape).astype(DTYPE)
    raise ConfigurationError(f"unknown xavier variant {variant!r}")


def zeros_init(shape) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction; state lives per parameter name.

    Parameters whose grad is None this step are skipped, so an update with
    all-zero gradients leaves parameters bit-identical (fixed point).
    """

    def __init__(self, params: dict[str, Parameter], lr: float = 0.005,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8,
                 clip_norm: float | None = None):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        grads = {}
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if not np.isfinite(p.grad).all():
                raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
            grads[name] = p.grad
        if self.clip_norm is not None and grads:
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                grads = {name: g * scale for name, g in grads.items()}
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
            self.params[name].values -= self.lr * update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
