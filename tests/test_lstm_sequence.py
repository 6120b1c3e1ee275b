"""The fused bidirectional `lstm_sequence` op against two references kept only here.

`sequence_oracle` is the recurrent core the models ran before the op
existed: one `LstmCell.step` of ~20 tape ops per time step, positions picked
with `index_axis` and joined with `concat`/`stack`; the op matches it to
1e-10. `mask_blend_lstm_sequence` is one direction of the fused op before its
recurrence was packed: every row steps at every position and the mask blends
the new state with the old. The packed op performs the same arithmetic on the
real cells, so it must match that one bitwise, values and gradients, and the
concatenation of two of them, one per direction.

Most cases test one direction: `one_direction` runs the op with the same
weights both ways and keeps the half of the output the direction writes.
"""

import numpy as np
import pytest

from oracles import (add, concat, index_axis, matmul, mul, mul_const, sigmoid, slice_last, stack,
                     sum_all, tanh)
from hanst import autodiff as ad
from hanst import models as md
from hanst.errors import ShapeMismatchError

TOL = 1e-10


def step_oracle(cell, x, h, c, m):
    """One update, gated by mask column m [B,1]: masked rows keep state."""
    gates = add(add(matmul(x, cell.w_ih), cell.b_ih),
                   add(matmul(h, cell.w_hh), cell.b_hh))
    n = cell.hidden
    i = sigmoid(slice_last(gates, 0, n))
    f = sigmoid(slice_last(gates, n, 2 * n))
    g = tanh(slice_last(gates, 2 * n, 3 * n))
    o = sigmoid(slice_last(gates, 3 * n, 4 * n))
    c_new = add(mul(f, c), mul(i, g))
    h_new = mul(o, tanh(c_new))
    c_out = add(mul_const(c_new, m), mul_const(c, 1.0 - m))
    h_out = add(mul_const(h_new, m), mul_const(h, 1.0 - m))
    return h_out, c_out


def direction_oracle(cell, steps, mask, order):
    b = steps[0].shape[0]
    h = c = ad.Tensor(np.zeros((b, cell.hidden)))
    states = [None] * len(steps)
    for i in order:
        h, c = step_oracle(cell, steps[i], h, c, mask[:, i: i + 1])
        states[i] = h
    return states, h


def sequence_oracle(cell, xs, mask, reverse=False):
    t = xs.shape[1]
    steps = [index_axis(xs, i, axis=1) for i in range(t)]
    order = reversed(range(t)) if reverse else range(t)
    states, _ = direction_oracle(cell, steps, mask, order)
    return stack(states, axis=1)


def bilstm_oracle(layer, xs, mask):
    """(per-position states [B,T,2h], final forward, final backward)."""
    t = xs.shape[1]
    steps = [index_axis(xs, i, axis=1) for i in range(t)]
    fw, final_fw = direction_oracle(layer.fw, steps, mask, range(t))
    bw, final_bw = direction_oracle(layer.bw, steps, mask, reversed(range(t)))
    per_pos = [concat([fw[i], bw[i]], axis=1) for i in range(t)]
    return stack(per_pos, axis=1), final_fw, final_bw


def one_direction(xs, w_ih, w_hh, b_ih, b_hh, mask, reverse=False):
    """The half of `ad.lstm_sequence` that one direction writes, with these
    weights in both directions. The other half takes no gradient, so its
    direction adds only zeros to each gradient."""
    weights = (w_ih, w_hh, b_ih, b_hh)
    n = w_hh.shape[0]
    both = ad.lstm_sequence(xs, weights, weights, mask)
    return slice_last(both, n, 2 * n) if reverse else slice_last(both, 0, n)


def weights_of(cell):
    return cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh


def rel(a, b):
    """Largest difference relative to the largest reference magnitude."""
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / scale


def make_cell(dim, hidden, seed):
    rng = np.random.default_rng(seed)
    params = {}
    cell = md.LstmCell("cell", dim, hidden, params, rng)
    # nonzero biases, and weights big enough to reach the saturated gate range
    for p in params.values():
        p.values = p.values + rng.normal(size=p.shape) * 0.5
    return cell, params


def masks(b, t):
    full = np.ones((b, t))
    ragged = np.ones((b, t))
    for row in range(b):
        ragged[row, 1 + row % t:] = 0.0
    # a full-length row of zero inputs (the test zeroes them)
    dummy = ragged.copy()
    dummy[-1] = 1.0
    return {"full": full, "ragged": ragged, "dummy": dummy}


def grads_of(run, cell, params, xs_values, upstream):
    for p in params.values():
        p.grad = None
    with ad.Tape():
        xs = ad.Tensor(xs_values)
        out = run(xs)
        ad.backward(sum_all(mul(out, ad.Tensor(upstream))))
    names = ("w_ih", "w_hh", "b_ih", "b_hh")
    return out.values, {"xs": xs.grad, **{n: getattr(cell, n).grad for n in names}}


CASES = [(kind, reverse, t) for kind in ("full", "ragged", "dummy")
         for reverse in (False, True) for t in (1, 5)]


@pytest.mark.parametrize("kind,reverse,t", CASES)
def test_matches_step_oracle(kind, reverse, t):
    b, dim, hidden = 4, 3, 5
    cell, params = make_cell(dim, hidden, seed=t + 7 * reverse)
    rng = np.random.default_rng(100 + t)
    xs = rng.normal(size=(b, t, dim))
    mask = masks(b, t)[kind]
    if kind == "dummy":
        xs[-1] = 0.0
    upstream = rng.normal(size=(b, t, hidden))

    def fused(x):
        return one_direction(x, *weights_of(cell), mask, reverse=reverse)

    want, want_grads = grads_of(lambda x: sequence_oracle(cell, x, mask, reverse),
                                cell, params, xs, upstream)
    got, got_grads = grads_of(fused, cell, params, xs, upstream)
    assert rel(got, want) <= TOL
    for name, expected in want_grads.items():
        assert got_grads[name] is not None, name
        assert rel(got_grads[name], expected) <= TOL, name


def test_masked_rows_carry_state():
    cell, _ = make_cell(3, 4, seed=1)
    xs = np.random.default_rng(2).normal(size=(2, 4, 3))
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    both = ad.lstm_sequence(ad.Tensor(xs), weights_of(cell), weights_of(cell), mask).values
    out, rev = both[..., :4], both[..., 4:]
    np.testing.assert_array_equal(out[0, 2], out[0, 1])
    np.testing.assert_array_equal(out[0, 3], out[0, 1])
    # reversed, the padded tail is seen first and leaves the zero state alone
    np.testing.assert_array_equal(rev[0, 2:], 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_no_tape_path_is_bit_identical(reverse):
    cell, _ = make_cell(3, 4, seed=3)
    other, _ = make_cell(3, 4, seed=13)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(3, 6, 3))
    mask = masks(3, 6)["ragged"]
    pair = (weights_of(other), weights_of(cell)) if reverse else (weights_of(cell), weights_of(other))
    plain = ad.lstm_sequence(ad.Tensor(xs), *pair, mask)
    with ad.Tape() as tape:
        taped = ad.lstm_sequence(ad.Tensor(xs), *pair, mask)
        assert tape.nodes == [taped]
    assert plain.tape is None
    np.testing.assert_array_equal(plain.values, taped.values)


def test_bilstm_layer_matches_composition():
    rng = np.random.default_rng(5)
    params = {}
    layer = md.BiLstmLayer("layer", 3, 4, params, rng)
    for p in params.values():
        p.values = p.values + rng.normal(size=p.shape) * 0.5
    xs = rng.normal(size=(3, 5, 3))
    mask = masks(3, 5)["ragged"]
    up = [rng.normal(size=(3, 5, 8)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]

    def run(fn):
        for p in params.values():
            p.grad = None
        with ad.Tape():
            x = ad.Tensor(xs)
            outs = fn(x)
            loss = add(add(sum_all(mul(outs[0], ad.Tensor(up[0]))),
                                 sum_all(mul(outs[1], ad.Tensor(up[1])))),
                          sum_all(mul(outs[2], ad.Tensor(up[2]))))
            ad.backward(loss)
        return [o.values for o in outs], [x.grad] + [p.grad for p in params.values()]

    def layer_outputs(x):
        both = layer.run(x, mask)
        return (both, index_axis(slice_last(both, 0, 4), x.shape[1] - 1, axis=1),
                index_axis(slice_last(both, 4, 8), 0, axis=1))

    want_vals, want_grads = run(lambda x: bilstm_oracle(layer, x, mask))
    got_vals, got_grads = run(layer_outputs)
    for got, want in zip(got_vals + got_grads, want_vals + want_grads):
        assert rel(got, want) <= TOL


def test_shape_checks():
    cell, _ = make_cell(3, 4, seed=6)
    wide, _ = make_cell(3, 5, seed=6)
    args = (weights_of(cell), weights_of(cell))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_sequence(ad.Tensor(np.ones((2, 3))), *args, np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_sequence(ad.Tensor(np.ones((2, 3, 5))), *args, np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_sequence(ad.Tensor(np.ones((2, 3, 3))), *args, np.ones((2, 4)))
    # the two directions must have one hidden size
    with pytest.raises(ShapeMismatchError):
        ad.lstm_sequence(ad.Tensor(np.ones((2, 3, 3))), weights_of(cell), weights_of(wide),
                         np.ones((2, 3)))


def test_mask_with_a_hole_rejected():
    cell, _ = make_cell(3, 4, seed=6)
    args = (weights_of(cell), weights_of(cell))
    xs = ad.Tensor(np.ones((2, 3, 3)))
    for bad in ([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]], [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
                [[1.0, 0.5, 0.0], [1.0, 1.0, 1.0]]):
        with pytest.raises(ShapeMismatchError):
            ad.lstm_sequence(xs, *args, np.array(bad))


# ---------------------------------------------------------------------------
# bitwise equality with the mask-blend op
# ---------------------------------------------------------------------------

def where_logistic(x):
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def mask_blend_lstm_sequence(xs, w_ih, w_hh, b_ih, b_hh, mask, reverse=False):
    """One direction of `ad.lstm_sequence` as it was before packing: every
    row runs every step and the mask blends new * m + old * (1 - m)."""
    b, t, d = xs.shape
    n = w_hh.shape[0]
    m = np.asarray(mask, dtype=ad.DTYPE)
    keep = 1.0 - m
    steps = range(t - 1, -1, -1) if reverse else range(t)
    x_flat = xs.values.reshape(b * t, d)
    proj = (x_flat @ w_ih.values + b_ih.values).reshape(b, t, 4 * n)
    states = np.empty((b, t, n))
    acts = np.empty((b, t, 4 * n))
    tanh_c = np.empty((b, t, n))
    cells = np.empty((b, t, n))
    h = c = np.zeros((b, n))
    for i in steps:
        gates = proj[:, i] + (h @ w_hh.values + b_hh.values)
        act = where_logistic(gates)
        act[:, 2 * n:3 * n] = np.tanh(gates[:, 2 * n:3 * n])
        c_new = act[:, n:2 * n] * c + act[:, :n] * act[:, 2 * n:3 * n]
        tc = np.tanh(c_new)
        mi, ki = m[:, i:i + 1], keep[:, i:i + 1]
        c = c_new * mi + c * ki
        h = (act[:, 3 * n:] * tc) * mi + h * ki
        states[:, i] = h
        acts[:, i] = act
        tanh_c[:, i] = tc
        cells[:, i] = c
    prev = 1 if reverse else -1

    def bwd(g):
        d_gates = np.empty((b, t, 4 * n))
        w_hh_t = w_hh.values.T
        zeros = np.zeros((b, n))
        dh = dc = zeros
        for i in reversed(steps):
            act = acts[:, i]
            in_g, forget, cell, out = act[:, :n], act[:, n:2 * n], act[:, 2 * n:3 * n], act[:, 3 * n:]
            tc = tanh_c[:, i]
            c_prev = zeros if i == steps[0] else cells[:, i + prev]
            mi, ki = m[:, i:i + 1], keep[:, i:i + 1]
            dh = dh + g[:, i]
            dh_new = dh * mi
            dc_new = dc * mi + dh_new * out * (1.0 - tc * tc)
            dg = d_gates[:, i]
            dg[:, :n] = dc_new * cell * in_g * (1.0 - in_g)
            dg[:, n:2 * n] = dc_new * c_prev * forget * (1.0 - forget)
            dg[:, 2 * n:3 * n] = dc_new * in_g * (1.0 - cell * cell)
            dg[:, 3 * n:] = dh_new * tc * out * (1.0 - out)
            dc = dc * ki + dc_new * forget
            dh = dh * ki + dg @ w_hh_t
        h_prev = np.zeros((b, t, n))
        if reverse:
            h_prev[:, :-1] = states[:, 1:]
        else:
            h_prev[:, 1:] = states[:, :-1]
        flat = d_gates.reshape(b * t, 4 * n)
        ad._accum(xs, (flat @ w_ih.values.T).reshape(b, t, d))
        ad._accum(w_ih, x_flat.T @ flat)
        ad._accum(w_hh, h_prev.reshape(b * t, n).T @ flat)
        d_bias = flat.sum(axis=0)
        ad._accum(b_ih, d_bias)
        ad._accum(b_hh, d_bias)

    return ad._record(states, bwd)


def prefix_mask(lengths, t):
    return (np.arange(t) < np.asarray(lengths)[:, None]).astype(float)


def random_lengths(rng, b, t):
    return rng.integers(1, t + 1, size=b)


# (B, T, lengths or None for random) for each shape the packing must handle
BITWISE_CASES = {
    "B1": (1, 6, None),
    "T1": (4, 1, None),
    "equal": (5, 6, [6] * 5),
    "equal-short": (3, 7, [4, 4, 4]),
    "one-left-at-end": (5, 8, [2, 8, 3, 1, 5]),
    "one-left-sorted": (4, 8, [8, 3, 2, 1]),
    "two-rows": (2, 5, [2, 5]),
    "random": (9, 12, None),
    "random-wide": (17, 9, None),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", sorted(BITWISE_CASES))
def test_bitwise_equal_to_mask_blend(case, reverse):
    b, t, lengths = BITWISE_CASES[case]
    seed = sorted(BITWISE_CASES).index(case)
    rng = np.random.default_rng(200 + seed)
    for hidden in (5, 16):
        cell, params = make_cell(3, hidden, seed=seed)
        for _ in range(3):
            mask = prefix_mask(random_lengths(rng, b, t) if lengths is None else lengths, t)
            xs = rng.normal(size=(b, t, 3))
            upstream = rng.normal(size=(b, t, hidden))
            args = (cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask)
            want, want_grads = grads_of(lambda x: mask_blend_lstm_sequence(x, *args, reverse=reverse),
                                        cell, params, xs, upstream)
            got, got_grads = grads_of(lambda x: one_direction(x, *args, reverse=reverse),
                                      cell, params, xs, upstream)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(one_direction(ad.Tensor(xs), *args, reverse=reverse).values,
                                          want)
            for name, expected in want_grads.items():
                np.testing.assert_array_equal(got_grads[name], expected, err_msg=name)


# (B, T, lengths): rows in order and out of order, one row, T = 1, equal lengths
BIDIRECTIONAL_CASES = {
    "in-order": (4, 6, [6, 5, 3, 1]),
    "out-of-order": (5, 7, [2, 7, 3, 1, 7]),
    "one-row": (1, 5, [3]),
    "T1": (3, 1, [1, 1, 1]),
    "equal": (3, 4, [4, 4, 4]),
}


@pytest.mark.parametrize("case", sorted(BIDIRECTIONAL_CASES))
def test_bidirectional_bitwise_equal_to_two_mask_blends(case):
    # one node for both directions is the concatenation of the two
    # one-direction ops, bit for bit, in values and in every gradient
    b, t, lengths = BIDIRECTIONAL_CASES[case]
    rng = np.random.default_rng(300 + sorted(BIDIRECTIONAL_CASES).index(case))
    fw_cell, fw_params = make_cell(3, 5, seed=21)
    bw_cell, bw_params = make_cell(3, 5, seed=22)
    params = list(fw_params.values()) + list(bw_params.values())
    fw, bw = weights_of(fw_cell), weights_of(bw_cell)
    mask = prefix_mask(lengths, t)
    xs = rng.normal(size=(b, t, 3))
    upstream = rng.normal(size=(b, t, 10))

    def run(fn):
        for p in params:
            p.grad = None
        with ad.Tape() as tape:
            x = ad.Tensor(xs)
            out = fn(x)
            recorded = list(tape.nodes)
            ad.backward(sum_all(mul(out, ad.Tensor(upstream))))
        return recorded == [out], [out.values, x.grad] + [p.grad for p in params]

    _, want = run(lambda x: concat([mask_blend_lstm_sequence(x, *fw, mask),
                                    mask_blend_lstm_sequence(x, *bw, mask, reverse=True)], axis=2))
    one_node, got = run(lambda x: ad.lstm_sequence(x, fw, bw, mask))
    assert one_node
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(ad.lstm_sequence(ad.Tensor(xs), fw, bw, mask).values, want[0])


def test_where_logistic_is_bitwise_the_branch_free_form():
    x = np.concatenate([np.random.default_rng(7).normal(scale=20.0, size=2000),
                        [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]])
    np.testing.assert_array_equal(ad._logistic(x), where_logistic(x))


@pytest.mark.parametrize("reverse", [False, True])
def test_paper_size_values_bitwise_gradients_to_rounding(reverse):
    # At H=256 the backward's [k, 4H] x [4H, H] product can take another BLAS
    # kernel for a few rows than for many (OpenBLAS has a small-matrix path
    # up to M*N*K = 1e6), so gradients may differ from the mask-blend op in
    # their last bits; the forward values may not.
    b, t, dim, hidden = 7, 12, 50, 256
    cell, params = make_cell(dim, hidden, seed=11)
    rng = np.random.default_rng(12)
    mask = prefix_mask([3, 12, 1, 7, 12, 5, 2], t)
    xs = rng.normal(size=(b, t, dim))
    upstream = rng.normal(size=(b, t, hidden))
    args = (cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask)
    want, want_grads = grads_of(lambda x: mask_blend_lstm_sequence(x, *args, reverse=reverse),
                                cell, params, xs, upstream)
    got, got_grads = grads_of(lambda x: one_direction(x, *args, reverse=reverse),
                              cell, params, xs, upstream)
    np.testing.assert_array_equal(got, want)
    for name, expected in want_grads.items():
        assert rel(got_grads[name], expected) <= 1e-13, name
