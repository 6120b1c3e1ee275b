"""The fused `lstm_sequence` op against the per-step composition it replaced.

The oracle below is the recurrent core the models ran before the op existed:
one `LstmCell.step` of ~20 tape ops per time step, positions picked with
`index_axis` and joined with `concat`/`stack`. It is kept here, and only here,
as the reference for values and gradients.
"""

import numpy as np
import pytest

from hanst import autodiff as ad
from hanst import models as md
from hanst.errors import ShapeMismatchError

TOL = 1e-10


def step_oracle(cell, x, h, c, m):
    """One update, gated by mask column m [B,1]: masked rows keep state."""
    gates = ad.add(ad.add(ad.matmul(x, cell.w_ih), cell.b_ih),
                   ad.add(ad.matmul(h, cell.w_hh), cell.b_hh))
    n = cell.hidden
    i = ad.sigmoid(ad.slice_last(gates, 0, n))
    f = ad.sigmoid(ad.slice_last(gates, n, 2 * n))
    g = ad.tanh(ad.slice_last(gates, 2 * n, 3 * n))
    o = ad.sigmoid(ad.slice_last(gates, 3 * n, 4 * n))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    c_out = ad.add(ad.mul_const(c_new, m), ad.mul_const(c, 1.0 - m))
    h_out = ad.add(ad.mul_const(h_new, m), ad.mul_const(h, 1.0 - m))
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
    steps = [ad.index_axis(xs, i, axis=1) for i in range(t)]
    order = reversed(range(t)) if reverse else range(t)
    states, _ = direction_oracle(cell, steps, mask, order)
    return ad.stack(states, axis=1)


def bilstm_oracle(layer, xs, mask):
    """(per-position states [B,T,2h], final forward, final backward)."""
    t = xs.shape[1]
    steps = [ad.index_axis(xs, i, axis=1) for i in range(t)]
    fw, final_fw = direction_oracle(layer.fw, steps, mask, range(t))
    bw, final_bw = direction_oracle(layer.bw, steps, mask, reversed(range(t)))
    per_pos = [ad.concat([fw[i], bw[i]], axis=1) for i in range(t)]
    return ad.stack(per_pos, axis=1), final_fw, final_bw


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
    # HanModel.encode gives padding sentences an all-ones mask over zero inputs
    dummy = ragged.copy()
    dummy[-1] = 1.0
    return {"full": full, "ragged": ragged, "dummy": dummy}


def grads_of(run, cell, params, xs_values, upstream):
    for p in params.values():
        p.grad = None
    with ad.Tape():
        xs = ad.Tensor(xs_values)
        out = run(xs)
        ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(upstream))))
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
        return ad.lstm_sequence(x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask, reverse=reverse)

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
    out = ad.lstm_sequence(ad.Tensor(xs), cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask).values
    np.testing.assert_array_equal(out[0, 2], out[0, 1])
    np.testing.assert_array_equal(out[0, 3], out[0, 1])
    rev = ad.lstm_sequence(ad.Tensor(xs), cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask,
                           reverse=True).values
    # reversed, the padded tail is seen first and leaves the zero state alone
    np.testing.assert_array_equal(rev[0, 2:], 0.0)


@pytest.mark.parametrize("reverse", [False, True])
def test_no_tape_path_is_bit_identical(reverse):
    cell, _ = make_cell(3, 4, seed=3)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(3, 6, 3))
    mask = masks(3, 6)["ragged"]
    args = (cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask)
    plain = ad.lstm_sequence(ad.Tensor(xs), *args, reverse=reverse)
    with ad.Tape() as tape:
        taped = ad.lstm_sequence(ad.Tensor(xs), *args, reverse=reverse)
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
            loss = ad.add(ad.add(ad.sum_all(ad.mul(outs[0], ad.Tensor(up[0]))),
                                 ad.sum_all(ad.mul(outs[1], ad.Tensor(up[1])))),
                          ad.sum_all(ad.mul(outs[2], ad.Tensor(up[2]))))
            ad.backward(loss)
        return [o.values for o in outs], [x.grad] + [p.grad for p in params.values()]

    want_vals, want_grads = run(lambda x: bilstm_oracle(layer, x, mask))
    got_vals, got_grads = run(lambda x: layer.run(x, mask))
    for got, want in zip(got_vals + got_grads, want_vals + want_grads):
        assert rel(got, want) <= TOL


def test_shape_checks():
    cell, _ = make_cell(3, 4, seed=6)
    args = (cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
    with pytest.raises(ShapeMismatchError):
        ad.lstm_sequence(ad.Tensor(np.ones((2, 3))), *args, np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_sequence(ad.Tensor(np.ones((2, 3, 5))), *args, np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_sequence(ad.Tensor(np.ones((2, 3, 3))), *args, np.ones((2, 4)))
