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

# the optimizer a running backward hands each Parameter's gradient to, if any
_optimizer: "Adam | None" = None

# float64 values in about 1 MiB: the row block attention_pool's backward works in
_BLOCK_FLOATS = 1 << 17


class Tensor:
    """A dense n-dimensional value with an optional gradient slot.

    ``backward_fn`` and ``tape`` are populated only when the tensor was
    produced by an op recorded on an active tape; ``backward_fn`` holds the
    op's inputs.
    """

    __slots__ = ("values", "grad", "name", "backward_fn", "tape")

    def __init__(self, values, name: str | None = None):
        self.values = np.asarray(values, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.name = name
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


class Parameter(Tensor):
    """A trainable leaf tensor."""


class Tape:
    """Wengert list: result nodes in execution (= topological) order.

    Leaving the ``with`` block drops the node list. Each node points back at
    its tape, so the list would otherwise hold the whole graph in a reference
    cycle until the cyclic collector ran; without it the graph is freed as
    soon as the caller lets go of its outputs. Call ``backward`` inside the
    block, once: it releases what each op saved for its gradient, so a tape
    allows one backward.
    """

    def __init__(self):
        self.nodes: list[Tensor] | None = []
        self.backward_done = False

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


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g to t.grad, or, in a backward with an optimizer, hand a
    Parameter's gradient to it, which updates the parameter at once. An op
    passes ``owned=True`` for an array it allocated for this one parent, which
    becomes the first gradient (or the update's scratch) as it is. Any other
    array is copied first: one the op hands to two parents, or a view of the
    op's own gradient, since the first gradient is later written in place.
    An op accumulates into a Parameter only after its last read of the
    parameter's values."""
    # every op passes a gradient of its parent's own shape; any other shape
    # is a bug in that op, so it is raised rather than broadcast
    if g.shape != t.values.shape:
        raise ShapeMismatchError(f"gradient of shape {g.shape} for a tensor of shape {t.values.shape}")
    if _optimizer is not None and isinstance(t, Parameter):
        _optimizer.update(t, g if owned else g.copy())
    elif t.grad is None:
        t.grad = g if owned else g.copy()
    else:
        t.grad += g


def _record(values: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(values)
    tape = _active_tape()
    if tape is not None:
        out.backward_fn = backward_fn
        out.tape = tape
        tape.nodes.append(out)
    return out


def backward(loss: Tensor, optimizer: "Adam | None" = None) -> None:
    """Populate ``grad`` on every tensor that contributed to ``loss``.

    Tensors off the path keep ``grad is None``. Each tape node is visited
    exactly once, and its own ``grad`` is released once it has been passed
    on to its parents; leaves keep theirs. Each node's ``backward_fn`` is
    taken off it before it runs, so the arrays an op saved for its gradient
    are freed as the walk goes on; the nodes and their values stay on the
    tape. A second backward on the same tape raises ConfigurationError.

    With an optimizer, a Parameter's gradient never lands on ``grad``: the
    op that computes it hands it to ``optimizer.update`` after its last read
    of the parameter, which applies the update there, so no more than one
    op's parameter gradients are alive at once. So each parameter must feed
    one op, as in the models. ``optimizer.step()`` then closes the step.
    """
    global _optimizer
    if loss.values.ndim != 0:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise ConfigurationError("loss was not recorded on a tape; run the forward pass inside `with Tape():`")
    if tape.nodes is None:
        raise ConfigurationError("the loss's tape is closed; call backward inside its `with Tape():` block")
    if tape.backward_done:
        raise ConfigurationError("backward already ran on this tape; a tape allows one backward")
    tape.backward_done = True
    loss.grad = np.ones((), dtype=DTYPE)
    _optimizer = optimizer
    try:
        for node in reversed(tape.nodes):
            backward_fn, node.backward_fn = node.backward_fn, None
            if node.grad is None:
                continue
            backward_fn(node.grad)
            node.grad = None
    finally:
        _optimizer = None


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor, keep: np.ndarray | None = None) -> Tensor:
    """(x * keep) @ w + b for x [N,D], w [D,K] and b [K], as one tape node; keep
    is a constant mask of x's shape (inverted dropout's), or None for x @ w + b."""
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],)
            or keep is not None and keep.shape != x.shape):
        raise ShapeMismatchError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}, keep {getattr(keep, 'shape', None)}")
    kept = x.values if keep is None else x.values * keep

    def bwd(g):
        dx = g @ w.values.T
        _accum(x, dx if keep is None else dx * keep, owned=True)
        _accum(w, kept.T @ g, owned=True)
        _accum(b, g.sum(axis=0), owned=True)

    return _record(kept @ w.values + b.values, bwd)


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # numerically safe: exp only ever sees non-positive arguments. The
    # numerator is 1 where x >= 0 (e <= 1 there) and e elsewhere, which is
    # bitwise the two-branch form without a data-dependent select. `out` may
    # be x: x is read before the result is written.
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _record(a.values.reshape(shape), lambda g: _accum(a, g.reshape(old)))


def rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2-D table; ids may have any shape."""
    ids = np.asarray(ids)
    values = table.values[ids]

    def bwd(g):
        grad = np.zeros_like(table.values)
        np.add.at(grad, ids, g)
        _accum(table, grad, owned=True)

    return _record(values, bwd)


def scatter_rows(a: Tensor, index: np.ndarray, shape) -> Tensor:
    """Rows of a [R, ...] at the distinct rows ``index`` of zeros of ``shape`` viewed as [n, ...]."""
    values = np.zeros(shape)
    flat = values.reshape((-1,) + a.shape[1:])
    flat[index] = a.values
    return _record(values, lambda g: _accum(a, g.reshape(flat.shape)[index], owned=True))


def weighted_sum(h: Tensor, weights: np.ndarray) -> Tensor:
    """Pooling of h [B,T,D] by constant weights [B,T] -> [B,D]; only h takes a gradient."""
    if h.ndim != 3 or weights.shape != h.shape[:2]:
        raise ShapeMismatchError(f"weighted_sum: states {h.shape} vs weights {weights.shape}")
    values = np.einsum("btd,bt->bd", h.values, weights)
    return _record(values, lambda g: _accum(h, weights[:, :, None] * g[:, None, :], owned=True))


def attention_pool(states: Tensor, w: Tensor, b: Tensor, u: Tensor,
                   mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Attention pooling of states [B,T,D] into pooled [B,D] and weights alpha [B,T].

    proj = tanh(states @ w + b), with a square w [D,D] and b [D], is scored
    against the context vector u [D,1], and alpha is the softmax of the
    scores over the positions where mask is true, stabilized by
    max-subtraction. Masked positions get alpha exactly 0, and every row must
    have at least one unmasked position. pooled is the alpha-weighted sum of
    the states.

    On a tape the op is one node, pooled; alpha is returned for reading and
    takes no gradient. The forward computes proj in one [B*T,D] array, adding
    b and taking tanh in place, and saves only proj and alpha for backward.
    The backward writes tanh' over proj, multiplies in the score gradient,
    and then overwrites it, one block of whole rows of about 1 MiB at a time,
    with the gradient of the states; so beyond what the tape holds it
    allocates only block-sized temporaries. Since w is square that gradient
    has proj's shape. It relies on ``backward`` running the closure once.
    """
    if states.ndim != 3:
        raise ShapeMismatchError(f"attention_pool: states must be [B,T,D], got {states.shape}")
    bsz, t, d = states.shape
    if w.shape != (d, d) or b.shape != (d,) or u.shape != (d, 1):
        raise ShapeMismatchError(
            f"attention_pool: states {states.shape} vs w {w.shape}, b {b.shape}, u {u.shape}")
    m = np.asarray(mask, dtype=bool)
    if m.shape != (bsz, t):
        raise ShapeMismatchError(f"attention_pool: mask {m.shape} vs states {states.shape}")
    if not m.any(axis=-1).all():
        raise DegenerateInputError("attention_pool: some row has all positions masked")
    flat = states.values.reshape(bsz * t, d)
    proj = flat @ w.values
    proj += b.values
    np.tanh(proj, out=proj)
    scores = (proj @ u.values).reshape(bsz, t)
    shifted = np.where(m, scores, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.where(m, np.exp(shifted), 0.0)
    alpha = e / e.sum(axis=-1, keepdims=True)
    pooled = np.einsum("btd,bt->bd", states.values, alpha)

    def bwd(g):
        nonlocal proj
        d_alpha = np.einsum("btd,bd->bt", states.values, g)
        inner = (alpha * d_alpha).sum(axis=-1, keepdims=True)
        d_scores = (alpha * (d_alpha - inner)).reshape(bsz * t, 1)
        d_u = proj.T @ d_scores
        # tanh' = 1 - proj*proj, written over proj (nothing reads it again)
        d_pre, proj = proj, None
        d_pre *= d_pre
        np.subtract(1.0, d_pre, out=d_pre)
        # blocks of whole documents, split evenly: a product of a few rows
        # can round differently from the same rows of a larger one
        n_blocks = min(bsz, -(-bsz * t * d // _BLOCK_FLOATS))
        edges = [bsz * j // n_blocks * t for j in range(n_blocks + 1)]
        blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        for rows in blocks:
            d_pre[rows] *= d_scores[rows] @ u.values.T
        _accum(b, d_pre.sum(axis=0), owned=True)
        d_w = flat.T @ d_pre
        # the gradient of the states, written over d_pre's rows block by block
        d_flat = d_pre.reshape(bsz, t, d)
        w_t = w.values.T
        for rows in blocks:
            d_pre[rows] = d_pre[rows] @ w_t
            docs = slice(rows.start // t, rows.stop // t)
            d_flat[docs] += alpha[docs, :, None] * g[docs, None, :]
        _accum(states, d_flat, owned=True)
        # u and w only now, when nothing reads their values again
        _accum(u, d_u, owned=True)
        _accum(w, d_w, owned=True)

    return _record(pooled, bwd), Tensor(alpha)


def lstm_sequence(xs: Tensor, fw: tuple[Tensor, Tensor, Tensor, Tensor],
                  bw: tuple[Tensor, Tensor, Tensor, Tensor], mask: np.ndarray) -> Tensor:
    """A bidirectional LSTM over a whole sequence: xs [B,T,D] -> states [B,T,2H].

    fw and bw hold each direction's weights (w_ih, w_hh, b_ih, b_hh), stored
    transposed: w_ih [D,4H] and w_hh [H,4H]. Gate order along the 4H axis:
    input, forget, cell, output. A step computes
    gates = (x @ w_ih + b_ih) + (h @ w_hh + b_hh); the first term is
    projected for all T steps in one GEMM. The state starts at zero. The
    forward direction steps over positions 0..T-1 and writes states[..., :H];
    then the reverse direction steps over T-1..0 and writes states[..., H:].

    mask [B,T] gives each row's length: every row must be ones followed by
    zeros (what ``pad_batch`` makes), anything else raises
    ShapeMismatchError. A row takes steps only at its real positions. At a
    padded position its output repeats the carried state: the final state
    going forward, the zero state going backward. The final state of a row is
    therefore its forward half at position T-1 and its reverse half at 0.

    The recurrence is packed. Rows are stepped longest first, so the k_i rows
    longer than position i are a prefix, and step i runs its GEMM and gate
    arithmetic on those rows alone. Rows that arrive in that order already
    (equal lengths, or a caller that sorts them) are not copied. A product of
    one row can differ in the last bit from the same row of a larger product,
    so the recurrent GEMM takes at least min(2, B) rows and keeps k_i.

    On a tape the op is one node for both directions. For backward it saves
    only each direction's post-activation gates [B,T,4H], 0 in the padded
    cells. It holds no other array per direction: the input projection is
    computed in place, and each step writes its gates over its own slice of
    the projection, which nothing reads again; so the projection becomes the
    saved gates. The hidden states are the op's output. The backward runs the
    reverse direction, then the forward one, and lets go of a direction's
    gates once it is done with them. A direction's backward first recomputes
    its cells [B,T,H] from the gates with the forward's own expression, so
    they and their tanh are bitwise the forward's. Its backward-through-time
    does one GEMM per step over the same k_i rows, for the gradient through
    w_hh into the previous state. It writes each step's gate gradients over
    that step's gates once it has read them, so the saved array becomes the
    gate gradients; this relies on ``backward`` running the closure only
    once. The cells' buffer then holds the previous hidden states, for one
    GEMM each for the gradients of xs, w_ih and w_hh over all steps, in the
    caller's row order. A direction hands over its four weight gradients as
    soon as its backward ends, so with an optimizer the reverse direction is
    updated before the forward one's backward starts. Without a tape nothing
    is saved.
    """
    if xs.ndim != 3:
        raise ShapeMismatchError(f"lstm_sequence: input must be [B,T,D], got {xs.shape}")
    b, t, d = xs.shape
    n = fw[1].shape[0]
    for w_ih, w_hh, b_ih, b_hh in (fw, bw):
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
    x_flat = xs.values.reshape(b * t, d)
    keep = _active_tape() is not None

    def run(weights, reverse, states):
        """Step one direction, writing its states [B,T,H] with the rows longest
        first; on a tape, return its post-activation gates [B,T,4H], written
        over its input projection, with 0 in the padded cells."""
        w_ih, w_hh, b_ih, b_hh = (p.values for p in weights)
        proj = x_flat @ w_ih
        proj += b_ih
        proj = proj.reshape(b, t, 4 * n)
        if not in_order:
            proj = proj[order]
        h = np.zeros((b, n))
        c = np.zeros((b, n))
        for i in range(t - 1, -1, -1) if reverse else range(t):
            k = active[i]
            if k:
                act = proj[:k, i]   # the gates, activated in place
                act += (h[:max(k, floor)] @ w_hh)[:k] + b_hh
                sig, cell, out_gate = act[:, :2 * n], act[:, 2 * n:3 * n], act[:, 3 * n:]
                _logistic(sig, out=sig)
                np.tanh(cell, out=cell)
                _logistic(out_gate, out=out_gate)
                c_new = act[:, n:2 * n] * c[:k] + act[:, :n] * cell
                c[:k] = c_new
                h[:k] = out_gate * np.tanh(c_new)
            proj[k:, i] = 0.0   # no gradient there
            states[:, i] = h
        return proj if keep else None

    out = np.empty((b, t, 2 * n))
    saved = [run(fw, False, out[:, :, :n]), run(bw, True, out[:, :, n:])]
    if not in_order:
        out = out[inverse]
    if not keep:
        return Tensor(out)

    def run_bwd(g, states, weights, reverse, acts):
        """Backward of one direction, from its halves of the output and its gradient."""
        w_ih, w_hh, b_ih, b_hh = weights
        if not in_order:
            g = g[order]
        steps = range(t - 1, -1, -1) if reverse else range(t)
        prev = 1 if reverse else -1
        zeros = np.zeros((b, n))
        # the cell after each step, by the forward's own expression; a row's
        # cell is 0 until its first step, and a padded cell is never read
        cells = np.zeros((b, t, n))
        for i in steps:
            k = active[i]
            if k:
                act = acts[:k, i]
                c_prev = zeros[:k] if i == steps[0] else cells[:k, i + prev]
                cells[:k, i] = act[:, n:2 * n] * c_prev + act[:, :n] * act[:, 2 * n:3 * n]
        w_hh_t = w_hh.values.T
        dh = np.zeros((b, n))
        dc = np.zeros((b, n))
        for i in reversed(steps):
            dh += g[:, i]
            k = active[i]
            if not k:
                continue
            act = acts[:k, i]
            in_g, forget, cell, out_g = act[:, :n], act[:, n:2 * n], act[:, 2 * n:3 * n], act[:, 3 * n:]
            tc = np.tanh(cells[:k, i])   # the forward's tanh of the same cells, bit for bit
            c_prev = zeros[:k] if i == steps[0] else cells[:k, i + prev]
            dh_k = dh[:k]
            dc_new = dc[:k] + dh_k * out_g * (1.0 - tc * tc)
            # every gate is read before any of its slots in acts is written
            d_in = dc_new * cell * in_g * (1.0 - in_g)
            d_forget = dc_new * c_prev * forget * (1.0 - forget)
            d_cell = dc_new * in_g * (1.0 - cell * cell)
            d_out = dh_k * tc * out_g * (1.0 - out_g)
            dc[:k] = dc_new * forget
            act[:, :n] = d_in
            act[:, n:2 * n] = d_forget
            act[:, 2 * n:3 * n] = d_cell
            act[:, 3 * n:] = d_out
            dh[:k] = (acts[:max(k, floor), i] @ w_hh_t)[:k]
        d_gates = acts if in_order else acts[inverse]
        h_prev, cells = cells, None   # the cells are done with; the buffer holds h_prev
        if reverse:
            h_prev[:, :-1] = states[:, 1:]
            h_prev[:, -1] = 0.0
        else:
            h_prev[:, 1:] = states[:, :-1]
            h_prev[:, 0] = 0.0
        flat = d_gates.reshape(b * t, 4 * n)
        _accum(xs, (flat @ w_ih.values.T).reshape(b, t, d), owned=True)
        _accum(w_ih, x_flat.T @ flat, owned=True)
        _accum(w_hh, h_prev.reshape(b * t, n).T @ flat, owned=True)
        d_bias = flat.sum(axis=0)
        _accum(b_ih, d_bias)
        _accum(b_hh, d_bias)

    def bwd(g):
        for lo, weights, reverse in ((n, bw, True), (0, fw, False)):
            half = slice(lo, lo + n)
            run_bwd(g[:, :, half], out[:, :, half], weights, reverse, saved.pop())

    return _record(out, bwd)


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
        _accum(logits, g * grad / n, owned=True)

    return _record(loss, bwd)


def l1_loss(output: Tensor, targets: np.ndarray) -> Tensor:
    """Mean absolute difference between output and targets of its shape."""
    targets = np.asarray(targets, dtype=DTYPE)
    if targets.shape != output.shape:
        raise ShapeMismatchError(f"l1_loss: output {output.shape} vs targets {targets.shape}")
    if output.size == 0:
        raise DegenerateInputError("l1_loss: empty batch")
    diff = output.values - targets
    sign = np.sign(diff)
    n = diff.size
    return _record(np.abs(diff).mean(), lambda g: _accum(output, g / n * sign, owned=True))


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


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Adam with bias correction; state lives per parameter name.

    ``backward(loss, optimizer)`` hands each parameter's gradient to
    ``update`` as soon as it is final, and ``step`` then closes the step. A
    parameter that takes no gradient in a step is not updated, so an update
    with all-zero gradients leaves parameters bit-identical (fixed point).
    """

    def __init__(self, params: dict[str, Parameter], lr: float = 0.005):
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}
        self._names = {id(p): name for name, p in params.items()}
        self._updated: set[str] = set()

    def update(self, p: Parameter, g: np.ndarray) -> None:
        """Apply p's update for step step_count + 1 from its gradient g, which
        it overwrites. A second update of p in one step raises
        ConfigurationError. A non-finite g raises NonFiniteGradientError before
        p changes; parameters updated earlier in the step stay updated."""
        name = self._names[id(p)]
        if name in self._updated:
            raise ConfigurationError(f"parameter {name!r} took a second gradient in one step")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        self._updated.add(name)
        t = self.step_count + 1
        m = self.m[name]
        v = self.v[name]
        # the expressions of m, v and the update, term for term, in place
        scratch = np.multiply(1.0 - ADAM_BETA2, g, out=np.empty_like(g))
        scratch *= g
        g *= 1.0 - ADAM_BETA1
        m *= ADAM_BETA1
        m += g
        v *= ADAM_BETA2
        v += scratch
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=g)
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPSILON
        g /= scratch
        g *= self.lr
        p.values -= g

    def step(self) -> None:
        """Close the step whose updates backward applied."""
        self.step_count += 1
        self._updated.clear()
