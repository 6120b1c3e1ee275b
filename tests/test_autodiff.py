import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import fd_grad, rel_err
from oracles import (
    abs_,
    add,
    composed_attention_pool,
    concat,
    dropout,
    index_axis,
    matmul,
    mean_all,
    mul,
    mul_const,
    sigmoid,
    slice_last,
    softmax,
    stack,
    sub,
    sum_all,
    tanh,
    weighted_sum,
)
from hanst import autodiff as ad
from hanst.errors import (
    ConfigurationError,
    DegenerateInputError,
    NonFiniteGradientError,
    NonScalarLossError,
    ShapeMismatchError,
)


def scalar_loss(op, *arrays, which: int = 0, step: float = 1e-5, tol: float = 1e-4):
    """Gradient-check `op` by summing its output into a scalar loss.

    Checks the analytic gradient of argument `which` against central
    finite differences.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    with ad.Tape():
        tensors = [ad.Tensor(a) for a in arrays]
        loss = sum_all(op(*tensors))
        ad.backward(loss)
    analytic = tensors[which].grad

    def f(x):
        inputs = list(arrays)
        inputs[which] = x
        ts = [ad.Tensor(a) for a in inputs]
        return float(op(*ts).values.sum())

    numeric = fd_grad(f, arrays[which].copy(), step=step)
    assert rel_err(analytic, numeric) < tol


class TestLinear:
    """`ad.linear` against the three generic ops it fused, kept in tests/oracles.py."""

    @staticmethod
    def outputs_and_grads(head, arrays, upstream):
        with ad.Tape() as tape:
            tensors = [ad.Tensor(a) for a in arrays]
            out = head(*tensors)
            nodes = len(tape.nodes)
            ad.backward(sum_all(mul(out, ad.Tensor(upstream))))
        return nodes, [out.values] + [t.grad for t in tensors]

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_bitwise_equal_to_dropout_matmul_add(self, p):
        rng = np.random.default_rng(15)
        arrays = [rng.normal(size=(6, 7)), rng.normal(size=(7, 3)), rng.normal(size=3)]
        upstream = rng.normal(size=(6, 3))
        keep = (np.random.default_rng(3).random((6, 7)) >= p) / (1.0 - p) if p else None
        n_want, want = self.outputs_and_grads(
            lambda x, w, b: add(matmul(dropout(x, p, True, np.random.default_rng(3)), w), b),
            arrays, upstream)
        n_got, got = self.outputs_and_grads(lambda x, w, b: ad.linear(x, w, b, keep), arrays, upstream)
        assert (n_want, n_got) == ((3 if p else 2), 1)
        for name, g, w in zip(("values", "x", "w", "b"), got, want):
            np.testing.assert_array_equal(g, w, err_msg=name)
        if p:
            assert (got[1][keep == 0] == 0).all() and (keep == 0).any()

    @pytest.mark.parametrize("masked", [False, True])
    def test_gradients_match_finite_differences(self, masked):
        rng = np.random.default_rng(16)
        arrays = [rng.normal(size=(4, 5)), rng.normal(size=(5, 2)), rng.normal(size=2)]
        keep = (rng.random((4, 5)) >= 0.3) / 0.7 if masked else None
        for which in range(3):
            scalar_loss(lambda x, w, b: ad.linear(x, w, b, keep), *arrays, which=which)

    def test_shape_mismatch(self):
        x, w, b = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones(4))
        for args in ((x, ad.Tensor(np.ones((2, 4))), b),
                     (x, w, ad.Tensor(np.ones(3))),
                     (ad.Tensor(np.ones((2, 1, 3))), w, b),
                     (x, w, b, np.ones((3, 2)))):
            with pytest.raises(ShapeMismatchError, match="linear"):
                ad.linear(*args)


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor(np.eye(2))
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, b).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_orthogonal_rows(self):
        a = ad.Tensor([[1.0, 0.0]])
        b = ad.Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(matmul(a, b).values, [[0.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        scalar_loss(matmul, a, b, which=0)
        scalar_loss(matmul, a, b, which=1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


class TestElementwise:
    def test_tanh_zero(self):
        assert tanh(ad.Tensor(0.0)).values == 0.0

    def test_sigmoid_zero(self):
        assert sigmoid(ad.Tensor(0.0)).values == 0.5

    def test_tanh_gradient(self):
        scalar_loss(tanh, np.array([0.3]))

    def test_binary_shape_mismatch(self):
        a = ad.Tensor(np.ones((2, 2)))
        b = ad.Tensor(np.ones(3))
        for op in (mul, sub):
            with pytest.raises(ShapeMismatchError):
                op(a, b)
        with pytest.raises(ShapeMismatchError):
            add(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    def test_unary_gradients(self, xs):
        # keep abs inputs away from its kink at 0
        x = np.asarray(xs)
        scalar_loss(tanh, x)
        scalar_loss(sigmoid, x)
        safe = np.where(np.abs(x) < 1e-2, 0.5, x)
        scalar_loss(abs_, safe)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    def test_binary_gradients(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, m))
        b = rng.normal(size=(n, m))
        for op in (add, mul, sub):
            scalar_loss(op, a, b, which=0)
            scalar_loss(op, a, b, which=1)

    def test_bias_broadcast_gradient(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        scalar_loss(add, a, b, which=0)
        scalar_loss(add, a, b, which=1)

    def test_const_ops(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3))
        scalar_loss(lambda t: mul_const(t, -2.0), a)
        with pytest.raises(ShapeMismatchError):
            mul_const(ad.Tensor(np.ones(3)), np.ones((2, 3)))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(ad.Tensor([0.0, 0.0]), mask=np.ones(2, dtype=bool))
        np.testing.assert_array_equal(out.values, [0.5, 0.5])

    def test_mask_symmetry(self):
        out = softmax(ad.Tensor([5.0, 5.0, 5.0]), mask=np.array([True, True, False]))
        np.testing.assert_array_equal(out.values, [0.5, 0.5, 0.0])

    def test_against_high_precision_formula(self):
        # independent exp-normalize at float128 precision
        x = np.array([1.0, 2.0, 3.0])
        e = np.exp(np.longdouble(x))
        expected = (e / e.sum()).astype(np.float64)
        out = softmax(ad.Tensor(x), mask=np.ones(3, dtype=bool))
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-15)

    def test_all_masked(self):
        with pytest.raises(DegenerateInputError):
            softmax(ad.Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))

    def test_extreme_values_stable(self):
        out = softmax(ad.Tensor([1000.0, 1000.0, -1000.0]), mask=np.ones(3, dtype=bool))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values[:2], [0.5, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    def test_sums_to_one(self, xs):
        out = softmax(ad.Tensor(xs), mask=np.ones(len(xs), dtype=bool))
        assert abs(float(out.values.sum()) - 1.0) <= 1e-9

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4))
        mask = np.array([[True, True, False, True], [True, True, True, True]])
        # weight the outputs so the gradient is not the trivial zero of sum(softmax)
        w = rng.normal(size=(2, 4))

        def op(t):
            return mul(softmax(t, mask=mask), ad.Tensor(w))

        scalar_loss(op, x)

    def test_masked_positions_get_zero_gradient(self):
        x = np.array([[1.0, 2.0, 3.0]])
        mask = np.array([[True, False, True]])
        with ad.Tape():
            t = ad.Tensor(x)
            out = softmax(t, mask=mask)
            ad.backward(sum_all(mul(out, ad.Tensor(np.array([[1.0, 5.0, 2.0]])))))
        assert t.grad[0, 1] == 0.0


class TestDropout:
    def test_p_zero_identity(self):
        x = ad.Tensor([1.0, 2.0])
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = ad.Tensor([1.0, 2.0])
        assert dropout(x, 0.5, training=False) is x

    def test_zero_fraction(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(np.ones(10 ** 5))
        out = dropout(x, 0.5, training=True, rng=rng)
        frac = float((out.values == 0.0).mean())
        assert abs(frac - 0.5) < 0.01

    def test_survivors_scaled(self):
        rng = np.random.default_rng(8)
        out = dropout(ad.Tensor(np.ones(1000)), 0.2, training=True, rng=rng)
        kept = out.values[out.values != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.8)

    def test_invalid_probability(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                dropout(ad.Tensor([1.0]), p, training=True, rng=np.random.default_rng(0))

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(9)
        x = np.ones(100)
        with ad.Tape():
            t = ad.Tensor(x)
            out = dropout(t, 0.5, training=True, rng=rng)
            ad.backward(sum_all(out))
        np.testing.assert_array_equal(t.grad, out.values)


class TestXavierInit:
    def test_uniform_bound(self):
        w = ad.xavier_init((100, 100), "uniform", np.random.default_rng(0))
        assert np.abs(w).max() <= np.sqrt(6.0 / 200.0)

    def test_normal_variance(self):
        w = ad.xavier_init((50, 50), "normal", np.random.default_rng(1))
        target = 2.0 / 100.0
        assert abs(w.var() - target) < 0.2 * target

    def test_rejects_bad_shape_and_variant(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            ad.xavier_init((3, 3, 3), "uniform", rng)
        with pytest.raises(ConfigurationError):
            ad.xavier_init((3, 3), "cauchy", rng)


def adam_step(opt, *grads):
    """One step on backward's path: each (parameter, gradient) pair to
    ``update``, as ``backward(loss, opt)`` hands them over, then ``step``."""
    for p, g in grads:
        opt.update(p, np.array(g, dtype=float))
    opt.step()


class TestAdam:
    def test_zero_grad_is_fixed_point(self):
        p = ad.Parameter(np.array([1.0, -2.0, 3.0]))
        before = p.values.copy()
        opt = ad.Adam({"w": p}, lr=0.005)
        adam_step(opt, (p, np.zeros(3)))
        np.testing.assert_array_equal(p.values, before)

    def test_first_step_magnitude(self):
        # bias correction makes the very first update ~ lr * sign(g)
        p = ad.Parameter(np.array(2.0))
        opt = ad.Adam({"w": p}, lr=0.005)
        adam_step(opt, (p, 0.37))
        assert abs(abs(2.0 - float(p.values)) - 0.005) < 1e-6

    def test_converges_on_quadratic(self):
        p = ad.Parameter(np.array(0.0))
        opt = ad.Adam({"w": p}, lr=0.05)
        for _ in range(200):
            adam_step(opt, (p, 2.0 * (p.values - 3.0)))
        assert abs(float(p.values) - 3.0) < 0.1

    def test_non_finite_gradient_names_parameter(self):
        # backward runs a's node first, so a is updated; w_out's gradient is
        # checked before w_out changes
        a = ad.Parameter(np.array([1.0]))
        w = ad.Parameter(np.array([1.0]))
        opt = ad.Adam({"a": a, "w_out": w})
        with ad.Tape():
            loss = sum_all(add(mul(w, ad.Tensor([np.inf])), mul(a, ad.Tensor([1.0]))))
            with pytest.raises(NonFiniteGradientError, match="'w_out'"):
                ad.backward(loss, opt)
        assert a.values[0] != 1.0 and w.values[0] == 1.0
        assert a.grad is None and w.grad is None

    def test_skips_parameters_without_grad(self):
        a = ad.Parameter(np.array(1.0))
        b = ad.Parameter(np.array(5.0))
        opt = ad.Adam({"a": a, "b": b})
        adam_step(opt, (a, 1.0))
        assert float(b.values) == 5.0
        assert float(a.values) != 1.0
        assert float(opt.m["b"]) == float(opt.v["b"]) == 0.0

    def test_step_counter_increments(self):
        # a step's updates use its number, step_count + 1, and step() closes it
        p = ad.Parameter(np.array(0.0))
        opt = ad.Adam({"w": p}, lr=0.5)
        for i in range(3):
            opt.update(p, np.array(1.0))
            assert opt.step_count == i
            opt.step()
            assert opt.step_count == i + 1
        # a constant gradient, bias-corrected by that number, moves p by lr each step
        np.testing.assert_allclose(p.values, -1.5, rtol=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(42)
            p = ad.Parameter(rng.normal(size=(4, 3)))
            opt = ad.Adam({"w": p}, lr=0.01)
            for _ in range(20):
                adam_step(opt, (p, rng.normal(size=(4, 3))))
            return p.values

        np.testing.assert_array_equal(run(), run())

    def test_second_gradient_in_one_step_raises(self):
        # w feeds two nodes, so backward hands it two gradients
        w = ad.Parameter(np.array([2.0]))
        opt = ad.Adam({"w": w})
        with ad.Tape():
            loss = sum_all(add(mul_const(w, 3.0), w))
            with pytest.raises(ConfigurationError, match="'w' took a second gradient in one step"):
                ad.backward(loss, opt)
        opt.step()
        adam_step(opt, (w, [1.0]))   # the next step takes one again


def arrays_held_by(objects, seen=None):
    """Every array reachable from functions' closures and the lists and
    tuples in them; tensors are not entered."""
    seen = set() if seen is None else seen
    for obj in objects:
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            yield from arrays_held_by(obj, seen)
        elif callable(obj) and getattr(obj, "__closure__", None):
            yield from arrays_held_by([cell.cell_contents for cell in obj.__closure__], seen)


class TestBackward:
    def test_sum_grad_all_ones(self):
        with ad.Tape():
            w = ad.Tensor(np.arange(6.0).reshape(2, 3))
            ad.backward(sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        with ad.Tape():
            w = ad.Tensor(np.array(3.0))
            ad.backward(sum_all(mul(w, w)))
        assert float(w.grad) == 6.0

    def test_non_scalar_loss_rejected(self):
        with ad.Tape():
            w = ad.Tensor(np.ones(3))
            with pytest.raises(NonScalarLossError):
                ad.backward(w)

    def test_requires_tape(self):
        w = ad.Tensor(np.array(1.0))
        loss = sum_all(w)
        with pytest.raises(ConfigurationError):
            ad.backward(loss)

    def test_off_path_parameter_gets_no_grad(self):
        with ad.Tape():
            used = ad.Tensor(np.array(2.0))
            unused = ad.Tensor(np.array(5.0))
            ad.backward(sum_all(mul(used, used)))
        assert unused.grad is None
        assert used.grad is not None

    def test_reused_node_accumulates(self):
        # y = w*w + w: dL/dw = 2w + 1
        with ad.Tape():
            w = ad.Tensor(np.array(4.0))
            ad.backward(sum_all(add(mul(w, w), w)))
        assert float(w.grad) == 9.0

    def test_long_chain_no_recursion_error(self):
        with ad.Tape():
            x = ad.Tensor(np.array(0.5))
            y = x
            for _ in range(5000):
                y = mul_const(y, 1.0)
            ad.backward(sum_all(y))
        assert float(x.grad) == 1.0

    def test_shared_gradient_is_not_aliased(self):
        # add hands one array to both parents; later gradient into `a` must
        # not show up in `b`
        with ad.Tape():
            a = ad.Tensor(np.array([1.0, 2.0]))
            b = ad.Tensor(np.array([3.0, 4.0]))
            scaled = mul_const(a, 3.0)
            ad.backward(sum_all(add(add(a, b), scaled)))
        np.testing.assert_array_equal(a.grad, [4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_gradient_of_another_shape_is_rejected(self):
        # an op that hands its [3] parent a scalar gradient is broken; it is
        # not broadcast silently
        with ad.Tape():
            w = ad.Tensor(np.ones(3))
            loss = ad._record(w.values.sum(), lambda g: ad._accum(w, g))
            with pytest.raises(ShapeMismatchError, match=r"gradient of shape \(\) for a tensor of shape \(3,\)"):
                ad.backward(loss)

    def test_intermediate_grads_released_leaves_kept(self):
        with ad.Tape() as tape:
            w = ad.Tensor(np.array([1.0, -2.0]))
            hidden = tanh(w)
            loss = sum_all(mul(hidden, hidden))
            ad.backward(loss)
            assert all(node.grad is None for node in tape.nodes)
        assert w.grad is not None

    def test_second_backward_on_a_tape_rejected(self):
        # the first backward released what each op saved; a second one would
        # add every gradient again
        with ad.Tape():
            w = ad.Tensor(np.array(3.0))
            loss = sum_all(mul(w, w))
            ad.backward(loss)
            with pytest.raises(ConfigurationError, match="already ran"):
                ad.backward(loss)
            with pytest.raises(ConfigurationError, match="already ran"):
                ad.backward(sum_all(w))
        assert float(w.grad) == 6.0

    def test_backward_releases_every_closure_and_keeps_the_nodes(self):
        rng = np.random.default_rng(0)
        lstm = tuple(ad.Tensor(rng.normal(size=s)) for s in ((5, 16), (4, 16), 16, 16))
        pool = [ad.Tensor(rng.normal(size=s)) for s in ((8, 8), 8, (8, 1))]
        lengths = [3, 1]
        with ad.Tape() as tape:
            w = ad.Tensor(np.array([1.0, -2.0]))
            unused = tanh(w)
            xs = ad.Tensor(rng.normal(size=(2, 3, 5)))
            states = ad.lstm_sequence(xs, lstm, lstm, lengths)
            # beside its output and a view of its input, lstm_sequence saves
            # one gates array per direction and nothing else: no cells, no
            # separate projection. A padded cell's gates are 0.
            lstm_held = list(arrays_held_by([states.backward_fn]))
            gates = [a for a in lstm_held if a.shape == (2, 3, 16)]
            assert len(gates) == 2
            for gate in gates:
                assert (gate[1, 1:] == 0).all() and (gate[0] != 0).all() and (gate[1, 0] != 0).all()
            assert all(a is states.values or np.shares_memory(a, xs.values)
                       for a in lstm_held if a.ndim > 1 and a.shape != (2, 3, 16))
            pooled, _ = ad.attention_pool(states, *pool, lengths)
            loss = add(sum_all(mul(tanh(w), w)), sum_all(pooled))
            nodes = list(tape.nodes)
            values = [node.values for node in nodes]
            closures = [node.backward_fn for node in nodes]
            ad.backward(loss)
            assert tape.nodes == nodes and unused in tape.nodes
            assert all(node.backward_fn is None for node in tape.nodes)
            assert all(node.values is v for node, v in zip(tape.nodes, values))
        # even the closures kept here let go, as they ran, of the gates
        # [2,3,16] that lstm_sequence saved per direction and of
        # attention_pool's projection [6,8]; what is left of that shape is
        # the view of the states attention_pool reads
        held = list(arrays_held_by(closures))
        assert held and not {a.shape for a in held} & {(2, 3, 16), (2, 3, 4)}
        assert all(np.shares_memory(a, states.values) for a in held if a.shape == (6, 8))

    def test_kept_first_gradients_are_never_shared(self):
        # an op's own array becomes a first gradient as it is, but add's one
        # array for its two parents is copied: a later gradient into `a` must
        # not show up in `b`
        rng = np.random.default_rng(2)
        a_vals, b_vals, w_vals = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
        with ad.Tape():
            a, b, w = ad.Tensor(a_vals), ad.Tensor(b_vals), ad.Tensor(w_vals)
            late = matmul(a, w)   # a feeds two ops; this one's gradient comes last
            s = add(a, b)
            ad.backward(add(sum_all(mul(s, s)), sum_all(late)))
        grads = [a.grad, b.grad, w.grad]
        assert not any(np.shares_memory(x, y) for i, x in enumerate(grads) for y in grads[i + 1:])
        np.testing.assert_allclose(b.grad, 2 * (a_vals + b_vals))
        np.testing.assert_allclose(a.grad, 2 * (a_vals + b_vals) + np.ones((2, 2)) @ w_vals.T)
        np.testing.assert_allclose(w.grad, a_vals.T @ np.ones((2, 2)))

    def test_closed_tape_drops_graph(self):
        with ad.Tape() as tape:
            w = ad.Tensor(np.array(2.0))
            loss = sum_all(mul(w, w))
        assert tape.nodes is None
        with pytest.raises(ConfigurationError, match="closed"):
            ad.backward(loss)


class TestStructuralOps:
    def test_reshape_gradient(self):
        rng = np.random.default_rng(4)
        w = ad.Tensor(rng.normal(size=6))
        scalar_loss(lambda t: mul(ad.reshape(t, (6,)), w), rng.normal(size=(2, 3)))

    def test_concat_gradient(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))
        w = ad.Tensor(rng.normal(size=(2, 5)))

        def op(x, y):
            return mul(concat([x, y], axis=1), w)

        scalar_loss(op, a, b, which=0)
        scalar_loss(op, a, b, which=1)

    def test_stack_gradient(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        w = ad.Tensor(rng.normal(size=(2, 2, 3)))

        def op(x, y):
            return mul(stack([x, y], axis=1), w)

        scalar_loss(op, a, b, which=0)

    def test_index_axis_gradient(self):
        rng = np.random.default_rng(7)
        w = ad.Tensor(rng.normal(size=(2, 4)))
        scalar_loss(lambda t: mul(index_axis(t, 1, axis=1), w),
                    rng.normal(size=(2, 3, 4)))

    def test_slice_last_gradient(self):
        rng = np.random.default_rng(8)
        w = ad.Tensor(rng.normal(size=(3, 2)))
        scalar_loss(lambda t: mul(slice_last(t, 2, 4), w),
                    rng.normal(size=(3, 6)))

    def test_mean_all_gradient(self):
        rng = np.random.default_rng(9)
        scalar_loss(mean_all, rng.normal(size=(3, 4)))

    def test_rows_gather_scatter(self):
        # repeated ids must accumulate into the same row
        rng = np.random.default_rng(10)
        table = rng.normal(size=(5, 3))
        ids = np.array([[0, 2, 2], [4, 0, 1]])
        w = ad.Tensor(rng.normal(size=(2, 3, 3)))
        scalar_loss(lambda t: mul(ad.rows(t, ids), w), table)

    def test_weighted_sum_gradient(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(2, 4, 3))
        alpha = rng.normal(size=(2, 4))
        w = ad.Tensor(rng.normal(size=(2, 3)))
        scalar_loss(lambda hs: mul(ad.weighted_sum(hs, alpha), w), h)

        # the oracle form, whose weights take a gradient too
        def op(hs, al):
            return mul(weighted_sum(hs, al), w)

        scalar_loss(op, h, alpha, which=0)
        scalar_loss(op, h, alpha, which=1)

        grads = []
        for pool in (lambda hs: ad.weighted_sum(hs, alpha),
                     lambda hs: weighted_sum(hs, ad.Tensor(alpha))):
            with ad.Tape():
                hs = ad.Tensor(h)
                ad.backward(sum_all(mul(pool(hs), w)))
            grads.append(hs.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_scatter_rows_gradient(self):
        rng = np.random.default_rng(17)
        w = ad.Tensor(rng.normal(size=(2, 3, 4)))
        out = ad.scatter_rows(ad.Tensor(np.ones((3, 4))), np.array([4, 0, 2]), (2, 3, 4))
        np.testing.assert_array_equal(out.values.reshape(6, 4).any(axis=1), [1, 0, 1, 0, 1, 0])
        scalar_loss(lambda t: mul(ad.scatter_rows(t, np.array([4, 0, 2]), (2, 3, 4)), w),
                    rng.normal(size=(3, 4)))

    def test_weighted_sum_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            ad.weighted_sum(ad.Tensor(np.ones((2, 4, 3))), np.ones((2, 5)))


# (rows, positions, state width, row lengths or None for random):
# the word level pools ragged sentences gathered longest first, the
# sentence level pools documents of a few sentences each
ATTENTION_CASES = {
    "word-ragged": (9, 7, 6, None),
    "word-wide": (12, 25, 64, None),
    # the han-paper word level: several of the backward's row blocks
    "word-blocks": (80, 25, 512, None),
    "word-one-position": (4, 1, 6, [1, 1, 1, 1]),
    "sentence-prefix": (3, 5, 6, [5, 2, 3]),
    "sentence-one-doc": (1, 4, 6, [4]),
}


class TestAttentionPool:
    @staticmethod
    def pooled_and_grads(pool, states_values, params, lengths, upstream):
        for p in params:
            p.grad = None
        with ad.Tape():
            states = ad.Tensor(states_values)
            pooled, alpha = pool(states, *params, lengths)
            ad.backward(sum_all(mul(pooled, ad.Tensor(upstream))))
        return pooled.values, alpha.values, [states.grad] + [p.grad for p in params]

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_bitwise_equal_to_composition(self, case):
        b, t, d, lengths = ATTENTION_CASES[case]
        rng = np.random.default_rng(sorted(ATTENTION_CASES).index(case))
        if lengths is None:
            lengths = np.sort(rng.integers(1, t + 1, size=b))[::-1]
        params = [ad.Parameter(ad.xavier_init((d, d), "uniform", rng)),
                  ad.Parameter(rng.normal(size=d) * 0.1),
                  ad.Parameter(ad.xavier_init((d, 1), "uniform", rng))]
        states = rng.normal(size=(b, t, d))
        upstream = rng.normal(size=(b, d))
        want = self.pooled_and_grads(composed_attention_pool, states, params, lengths, upstream)
        got = self.pooled_and_grads(ad.attention_pool, states, params, lengths, upstream)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert (got[1][np.arange(t) >= np.asarray(lengths)[:, None]] == 0.0).all()
        for name, g, w in zip(("states", "w", "b", "u"), got[2], want[2]):
            np.testing.assert_array_equal(g, w, err_msg=name)

    def test_one_tape_node_and_alpha_takes_no_gradient(self):
        rng = np.random.default_rng(1)
        params = [ad.Tensor(rng.normal(size=s)) for s in ((3, 3), 3, (3, 1))]
        with ad.Tape() as tape:
            pooled, alpha = ad.attention_pool(ad.Tensor(rng.normal(size=(2, 4, 3))), *params, [4, 4])
            assert tape.nodes == [pooled]
        assert alpha.backward_fn is None and alpha.tape is None

    def test_all_masked_row_rejected(self):
        params = [ad.Tensor(np.ones(s)) for s in ((3, 3), 3, (3, 1))]
        # a row of length 0 has no position to attend to
        with pytest.raises(DegenerateInputError, match="all positions masked"):
            ad.attention_pool(ad.Tensor(np.ones((2, 4, 3))), *params, [2, 0])

    def test_shape_checks(self):
        states = ad.Tensor(np.ones((2, 4, 3)))
        w, b, u = (ad.Tensor(np.ones(s)) for s in ((3, 3), 3, (3, 1)))
        for args in ((states, w, b, u, [4, 4, 4]),
                     # one integer length per row, each in 0..T
                     (states, w, b, u, [[4, 4]]),
                     (states, w, b, u, [5, 4]),
                     (states, w, b, u, [4, -1]),
                     (states, w, b, u, np.array([4.0, 4.0])),
                     (states, ad.Tensor(np.ones((4, 3))), b, u, [4, 4]),
                     # a consistent but non-square w [D,A]: w must be square
                     (states, ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones(4)),
                      ad.Tensor(np.ones((4, 1))), [4, 4]),
                     (states, w, ad.Tensor(np.ones(4)), u, [4, 4]),
                     (states, w, b, ad.Tensor(np.ones(3)), [4, 4]),
                     (ad.Tensor(np.ones((8, 3))), w, b, u, [4, 4])):
            with pytest.raises(ShapeMismatchError):
                ad.attention_pool(*args)


class TestL1Loss:
    def test_bitwise_equal_to_composition(self):
        rng = np.random.default_rng(14)
        output = rng.normal(size=(6, 1))
        targets = rng.normal(size=(6, 1))
        targets[2] = output[2]   # a zero difference takes zero gradient

        def run(loss_of):
            with ad.Tape():
                out = ad.Tensor(output)
                loss = loss_of(out)
                ad.backward(loss)
            return loss.values, out.grad

        want = run(lambda out: mean_all(abs_(sub(out, ad.Tensor(targets)))))
        got = run(lambda out: ad.l1_loss(out, targets))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[1][2, 0] == 0.0

    def test_empty_batch_and_shape_check(self):
        with pytest.raises(DegenerateInputError):
            ad.l1_loss(ad.Tensor(np.zeros((0, 1))), np.zeros((0, 1)))
        with pytest.raises(ShapeMismatchError):
            ad.l1_loss(ad.Tensor(np.zeros((3, 1))), np.zeros(3))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.cross_entropy(ad.Tensor(np.zeros((2, 4))), np.array([0, 3]))
        np.testing.assert_allclose(float(loss.values), np.log(4.0))

    def test_gradient(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(3, 4))
        golds = np.array([1, 0, 3])
        scalar_loss(lambda t: ad.cross_entropy(t, golds), logits, tol=1e-4)

    def test_empty_batch(self):
        with pytest.raises(DegenerateInputError):
            ad.cross_entropy(ad.Tensor(np.zeros((0, 2))), np.zeros(0, dtype=np.int64))

    def test_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            ad.cross_entropy(ad.Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))


class TestComposedGraph:
    def test_mlp_with_attention_pooling_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        emb = rng.normal(size=(7, 4)) * 0.5
        w1 = rng.normal(size=(4, 5)) * 0.5
        b1 = rng.normal(size=5) * 0.1
        u = rng.normal(size=(5, 1)) * 0.5
        w2 = rng.normal(size=(5, 3)) * 0.5
        ids = np.array([[1, 4, 2], [6, 0, 3]])
        mask = np.array([[True, True, False], [True, True, True]])
        golds = np.array([2, 0])

        def forward(params):
            e, a1, c1, cu, a2 = params
            x = ad.rows(e, ids)                                # [2,3,4]
            flat = ad.reshape(x, (6, 4))
            h = tanh(add(matmul(flat, a1), c1))       # [6,5]
            scores = ad.reshape(matmul(h, cu), (2, 3))
            alpha = softmax(scores, mask=mask)
            pooled = weighted_sum(ad.reshape(h, (2, 3, 5)), alpha)
            logits = matmul(pooled, a2)
            return ad.cross_entropy(logits, golds)

        arrays = [emb, w1, b1, u, w2]
        with ad.Tape():
            tensors = [ad.Tensor(a) for a in arrays]
            ad.backward(forward(tensors))

        for i, arr in enumerate(arrays):
            def f(x, i=i):
                inputs = [a.copy() for a in arrays]
                inputs[i] = x
                return float(forward([ad.Tensor(a) for a in inputs]).values)

            numeric = fd_grad(f, arr.copy())
            assert rel_err(tensors[i].grad, numeric) < 1e-3, f"param {i}"
