"""Gradient and contract tests for the reverse-mode engine.

Every op gets central finite differences as its oracle; structural
properties (fan-out accumulation, linearity, softmax shift invariance)
are asserted directly.
"""

import gc
import re
import weakref

import numpy as np
import pytest

from gradcheck import KinkRecorder, finite_difference_check
from proxyrec import autodiff as ad
from proxyrec.autodiff import Tensor, no_grad
from proxyrec.errors import GradientError, ShapeError

RNG = np.random.default_rng(42)


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    for c in range(x.size):
        saved = x.flat[c]
        x.flat[c] = saved + h
        fp = f(x)
        x.flat[c] = saved - h
        fm = f(x)
        x.flat[c] = saved
        g.flat[c] = (fp - fm) / (2 * h)
    return g


def check_unary(op, x, f_np, h=1e-6, tol=1e-6):
    """FD-check a unary Tensor op against its numpy forward."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    np.testing.assert_allclose(out.data, f_np(x), rtol=1e-12, atol=1e-12)
    out.sum().backward() if out.data.size > 1 else out.backward()
    want = numeric_grad(lambda a: float(np.sum(f_np(a))), x.copy(), h=h)
    np.testing.assert_allclose(t.grad, want, rtol=tol, atol=tol)


class TestElementwise:
    def test_add_broadcast_grad(self):
        a = RNG.normal(size=(4, 3, 5))
        b = RNG.normal(size=(3, 1))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones_like(a))
        np.testing.assert_allclose(tb.grad, np.full_like(b, 4 * 5))

    def test_sub_mul_div_grads(self):
        a = RNG.normal(size=(3, 4)) + 3.0
        b = RNG.normal(size=(4,)) + 3.0
        for op, fa, fb in [
            (lambda x, y: x - y, lambda: np.ones((3, 4)), lambda: -3 * np.ones(4)),
            (lambda x, y: x * y, lambda: np.broadcast_to(b, (3, 4)), lambda: a.sum(0)),
            (lambda x, y: x / y, lambda: np.broadcast_to(1 / b, (3, 4)), lambda: (-a / b ** 2).sum(0)),
        ]:
            ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
            op(ta, tb).sum().backward()
            np.testing.assert_allclose(ta.grad, fa(), rtol=1e-12)
            np.testing.assert_allclose(tb.grad, fb(), rtol=1e-12)

    def test_scalar_operand_fastpaths(self):
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        out = (2.0 * t + 1.0 - 0.5) / 4.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])

    def test_relu_leaky_abs(self):
        x = RNG.normal(size=(7, 3))
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, (x > 0).astype(float))
        t = Tensor(x, requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(t.grad, np.where(x > 0, 1.0, 0.1))
        t = Tensor(x, requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, np.sign(x))

    def test_kink_left_derivative_at_zero(self):
        t = Tensor(np.array([0.0, -0.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0])
        t = Tensor(np.array([0.0]), requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(t.grad, [0.1])


class TestLinalg:
    # ids keep each shape's place in the former eight-case table
    @pytest.mark.parametrize(
        "sa,sb",
        [
            pytest.param((3, 4), (4, 5), id="sa0-sb0"),
            pytest.param((3, 4), (4,), id="sa5-sb5"),
        ],
    )
    def test_matmul_grads(self, sa, sb):
        a = RNG.normal(size=sa)
        b = RNG.normal(size=sb)
        ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
        out = ta @ tb
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-12, atol=1e-12)
        (out.sum() if out.data.size > 1 else out).backward()
        ga = numeric_grad(lambda x: float(np.sum(x @ b)), a.copy())
        gb = numeric_grad(lambda x: float(np.sum(a @ x)), b.copy())
        np.testing.assert_allclose(ta.grad, ga, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(tb.grad, gb, rtol=1e-5, atol=1e-7)

    def test_matmul_shape_error_names_both(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 5\)"):
            Tensor(np.ones((3, 4))) @ Tensor(np.ones((3, 5)))

    @pytest.mark.parametrize(
        "sa,sb",
        [
            pytest.param((6, 3, 4), (4, 5), id="sa1-sb1"),
            pytest.param((6, 3, 4), (6, 4, 5), id="sa2-sb2"),
            pytest.param((2, 1, 3, 4), (5, 4, 2), id="sa3-sb3"),
            pytest.param((4,), (4, 5), id="sa4-sb4"),
            pytest.param((6, 3, 4), (4,), id="sa6-sb6"),
            pytest.param((4,), (4,), id="sa7-sb7"),
        ],
    )
    def test_matmul_rejects_other_shapes(self, sa, sb):
        # stacked operands and a vector on the left are not model shapes
        with pytest.raises(ShapeError, match=rf"{re.escape(str(sa))}.*{re.escape(str(sb))}"):
            Tensor(np.ones(sa)) @ Tensor(np.ones(sb))

    def test_gather_scatter_adds_for_repeats(self):
        table = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([2, 2, 5])
        table.gather(idx).sum().backward()
        want = np.zeros((6, 3))
        want[2] = 2.0
        want[5] = 1.0
        np.testing.assert_allclose(table.grad, want)

    def test_gather_grad_is_bit_equal_to_dense_scatter(self):
        # repeated and negative indices, two gathers of one leaf, a seeded
        # output weight: the row-sparse gradient must match dense np.add.at
        # bit for bit (-1 and 8 name one row, as do -8 and 1)
        data = RNG.normal(size=(9, 4))
        i1 = np.array([[3, 1, 3], [8, 3, 0]])
        i2 = np.array([1, -8, 5, 3, 1, -1, 8])
        w1, w2 = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(7, 4))
        table = Tensor(data, requires_grad=True)
        ((table.gather(i1) * Tensor(w1)).sum() + (table.gather(i2) * Tensor(w2)).sum()).backward()
        buf1, buf2 = np.zeros_like(data), np.zeros_like(data)
        np.add.at(buf1, i1, w1)
        np.add.at(buf2, i2, w2)
        np.testing.assert_array_equal(table.grad, buf1 + buf2)

    def test_gather_nd_index(self):
        table = Tensor(RNG.normal(size=(8, 2)), requires_grad=True)
        idx = np.array([[0, 1], [1, 7]])
        out = table.gather(idx)
        assert out.shape == (2, 2, 2)
        out.sum().backward()
        assert table.grad[1].sum() == pytest.approx(2 * 2)

    def test_reshape_roundtrip_grad(self):
        t = Tensor(RNG.normal(size=(6,)), requires_grad=True)
        (t.reshape(2, 3) * Tensor(np.arange(6.0).reshape(2, 3))).sum().backward()
        np.testing.assert_allclose(t.grad, np.arange(6.0))


class TestReductions:
    def test_sum_grad(self):
        x = RNG.normal(size=(3, 5))
        t = Tensor(x.copy(), requires_grad=True)
        out = t.sum()
        assert out.data.shape == ()
        out.backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_l2norm_grads(self):
        x = RNG.normal(size=(4, 3)) + 0.1
        check_unary(lambda t: t.l2norm(), x, lambda a: np.linalg.norm(a, axis=-1))
        w = np.arange(1.0, 5.0).reshape(4, 1)
        t = Tensor(x.copy(), requires_grad=True)
        (t.l2norm(keepdims=True) * Tensor(w)).sum().backward()
        f = lambda a: float((np.linalg.norm(a, axis=-1, keepdims=True) * w).sum())
        want = numeric_grad(f, x.copy())
        np.testing.assert_allclose(t.grad, want, rtol=1e-6, atol=1e-8)

    def test_l2norm_at_zero_is_guarded(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        t.l2norm().backward()
        assert np.all(np.isfinite(t.grad))

    def test_inner_and_sq_dist_broadcast(self):
        a = RNG.normal(size=(2, 1, 4))
        b = RNG.normal(size=(2, 3, 4))
        ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
        out = ta.inner(tb)
        np.testing.assert_allclose(out.data, (a * b).sum(-1), rtol=1e-12)
        out.sum().backward()
        np.testing.assert_allclose(ta.grad, b.sum(1, keepdims=True))
        np.testing.assert_allclose(tb.grad, np.broadcast_to(a, b.shape))

        ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
        out = ta.sq_dist(tb)
        np.testing.assert_allclose(out.data, ((a - b) ** 2).sum(-1), rtol=1e-12)
        out.sum().backward()
        ga = numeric_grad(lambda x: float(((x - b) ** 2).sum()), a.copy())
        np.testing.assert_allclose(ta.grad, ga, rtol=1e-5, atol=1e-7)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = RNG.normal(size=(10, 7)) * 5
        y = Tensor(x).softmax().data
        np.testing.assert_allclose(y.sum(-1), np.ones(10), atol=1e-12)
        assert (y > 0).all()

    def test_shift_invariance(self):
        x = RNG.normal(size=(64,))
        base = Tensor(x).softmax().data
        for c in (1.0, -50.0, 1234.5):
            np.testing.assert_allclose(Tensor(x + c).softmax().data, base, atol=1e-10)

    def test_extreme_logits_stay_finite(self):
        y = Tensor(np.array([1e4, 0.0, -1e4])).softmax().data
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(1.0)

    def test_softmax_grad(self):
        x = RNG.normal(size=(3, 5))
        w = RNG.normal(size=(3, 5))
        t = Tensor(x.copy(), requires_grad=True)
        (t.softmax() * Tensor(w)).sum().backward()
        want = numeric_grad(
            lambda a: float((np.exp(a - a.max(-1, keepdims=True))
                             / np.exp(a - a.max(-1, keepdims=True)).sum(-1, keepdims=True) * w).sum()),
            x.copy(),
        )
        np.testing.assert_allclose(t.grad, want, rtol=1e-5, atol=1e-8)


# uneven runs of rows: a length-1 run and a run of MAX_LEN among them
MAX_LEN = 6
LENGTHS = np.array([2, 1, MAX_LEN, 3, 1])
STARTS = np.cumsum(LENGTHS) - LENGTHS


def _np_segment_softmax(x):
    out = np.empty_like(x)
    for s, n in zip(STARTS, LENGTHS):
        e = np.exp(x[s : s + n] - x[s : s + n].max())
        out[s : s + n] = e / e.sum()
    return out


class TestSegments:
    def test_segment_sum_grad(self):
        x = RNG.normal(size=(LENGTHS.sum(), 3))
        w = RNG.normal(size=(LENGTHS.size, 3))
        t = Tensor(x.copy(), requires_grad=True)
        out = t.segment_sum(STARTS)
        want_out = np.stack([x[s : s + n].sum(axis=0) for s, n in zip(STARTS, LENGTHS)])
        np.testing.assert_allclose(out.data, want_out, rtol=1e-12, atol=1e-12)
        (out * Tensor(w)).sum().backward()
        f = lambda a: float((np.add.reduceat(a, STARTS, axis=0) * w).sum())
        np.testing.assert_allclose(t.grad, numeric_grad(f, x.copy()), rtol=1e-6, atol=1e-8)

    def test_repeat_rows_grad(self):
        x = RNG.normal(size=(LENGTHS.size, 3))
        w = RNG.normal(size=(LENGTHS.sum(), 3))
        t = Tensor(x.copy(), requires_grad=True)
        out = t.repeat_rows(LENGTHS)
        np.testing.assert_array_equal(out.data, np.repeat(x, LENGTHS, axis=0))
        (out * Tensor(w)).sum().backward()
        f = lambda a: float((np.repeat(a, LENGTHS, axis=0) * w).sum())
        np.testing.assert_allclose(t.grad, numeric_grad(f, x.copy()), rtol=1e-6, atol=1e-8)

    def test_segment_softmax_grad(self):
        x = RNG.normal(size=LENGTHS.sum()) * 3
        w = RNG.normal(size=LENGTHS.sum())
        t = Tensor(x.copy(), requires_grad=True)
        out = t.segment_softmax(STARTS)
        np.testing.assert_allclose(out.data, _np_segment_softmax(x), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(np.add.reduceat(out.data, STARTS), 1.0, atol=1e-12)
        (out * Tensor(w)).sum().backward()
        f = lambda a: float((_np_segment_softmax(a) * w).sum())
        np.testing.assert_allclose(t.grad, numeric_grad(f, x.copy()), rtol=1e-5, atol=1e-8)

    def test_length_one_run_is_exactly_one_with_zero_grad(self):
        x = RNG.normal(size=LENGTHS.sum()) * 50
        t = Tensor(x.copy(), requires_grad=True)
        out = t.segment_softmax(STARTS)
        single = STARTS[LENGTHS == 1]
        np.testing.assert_array_equal(out.data[single], 1.0)
        (out * Tensor(RNG.normal(size=x.size))).sum().backward()
        np.testing.assert_array_equal(t.grad[single], 0.0)

    def test_repeat_rows_and_segment_sum_are_transposes(self):
        # <repeat(a), b> == <a, segsum(b)>, and each one's backward is the other
        a = RNG.normal(size=(LENGTHS.size, 4))
        b = RNG.normal(size=(LENGTHS.sum(), 4))
        lhs = float((Tensor(a).repeat_rows(LENGTHS).data * b).sum())
        rhs = float((a * Tensor(b).segment_sum(STARTS).data).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)
        ta = Tensor(a.copy(), requires_grad=True)
        (ta.repeat_rows(LENGTHS) * Tensor(b)).sum().backward()
        np.testing.assert_array_equal(ta.grad, Tensor(b).segment_sum(STARTS).data)
        tb = Tensor(b.copy(), requires_grad=True)
        (tb.segment_sum(STARTS) * Tensor(a)).sum().backward()
        np.testing.assert_array_equal(tb.grad, Tensor(a).repeat_rows(LENGTHS).data)


class TestGraphStructure:
    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, 4 * x.data)

    def test_shared_subexpression_equals_expanded(self):
        xv, yv = RNG.normal(size=(4,)), RNG.normal(size=(4,))
        x1, y1 = Tensor(xv.copy(), requires_grad=True), Tensor(yv.copy(), requires_grad=True)
        shared = x1 * y1
        (shared + shared).sum().backward()
        x2, y2 = Tensor(xv.copy(), requires_grad=True), Tensor(yv.copy(), requires_grad=True)
        ((x2 * y2) + (x2 * y2)).sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-10)
        np.testing.assert_allclose(y1.grad, y2.grad, atol=1e-10)

    def test_gradient_linearity(self):
        xv = RNG.normal(size=(5,))
        a, b = 2.5, -1.25

        def g_of(fn):
            t = Tensor(xv.copy(), requires_grad=True)
            fn(t).backward()
            return t.grad

        f = lambda t: (t * t).sum()
        g = lambda t: t.relu().sum()
        combo = g_of(lambda t: a * f(t) + b * g(t))
        np.testing.assert_allclose(combo, a * g_of(f) + b * g_of(g), atol=1e-10)

    def test_backward_frees_the_graph_without_a_collector(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            h = (x @ Tensor(RNG.normal(size=(4, 2)))).relu()
            root = (h * h).sum()
            probe = weakref.ref(h)
            root.backward()
            del root, h
            assert probe() is None
        finally:
            if enabled:
                gc.enable()
        assert x.grad is not None and x.grad.shape == (3, 4)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            (t * 2).backward()

    def test_no_grad_output_is_freed_without_a_collector(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            with no_grad():
                h = (x * 2.0).relu()
                out = (h @ Tensor(RNG.normal(size=(4, 2)))).sum()
            probe = weakref.ref(h)
            del h, out
            assert probe() is None
        finally:
            if enabled:
                gc.enable()

    def test_no_grad_suppresses_recording(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (t * 2).sum()
        assert not out.requires_grad and out._prev == ()


class TestFiniteDifferenceCheck:
    def test_passes_on_smooth_composite(self):
        rng = np.random.default_rng(7)
        leaves = {
            "w": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            "x": Tensor(rng.normal(size=(5, 4)), requires_grad=True),
        }

        def objective():
            h = (leaves["x"] @ leaves["w"]).softmax()
            return (h * h).sum() + leaves["w"].l2norm().sum()

        report = finite_difference_check(objective, leaves)
        assert report.ok(1e-4)
        assert report.skipped == 0
        assert report.checked == 4 * 3 + 5 * 4

    def test_hinge_at_margin_is_skipped(self):
        # f(x) = relu(x): at x=0 there is no two-sided derivative; the
        # checker must flag the coordinate instead of failing on it
        leaves = {"x": Tensor(np.array([0.0, 1.0]), requires_grad=True)}
        report = finite_difference_check(lambda: leaves["x"].relu().sum(), leaves, h=1e-5)
        assert report.skipped >= 1
        assert report.ok(1e-4)

    def test_detects_a_wrong_gradient(self):
        # sabotage: objective whose recorded backward is deliberately wrong
        x = Tensor(np.array([1.5, -0.7]), requires_grad=True)

        def objective():
            def backward(g):
                x._accum(g * 2.0)  # claims slope 2, real slope 3

            return Tensor._make(x.data * 3.0, (x,), backward).sum()

        report = finite_difference_check(objective, {"x": x})
        assert not report.ok(1e-4)

    def test_subsampling_large_tensors(self):
        rng = np.random.default_rng(3)
        leaves = {"big": Tensor(rng.normal(size=(40, 40)), requires_grad=True)}
        report = finite_difference_check(
            lambda: (leaves["big"] * leaves["big"]).sum(), leaves, max_coords=100
        )
        assert report.checked == 100
        assert report.ok(1e-4)

    def test_kink_recorder_collects_preacts(self):
        with KinkRecorder() as rec:
            Tensor(np.array([-1.0, 2.0])).relu()
            Tensor(np.array([[3.0]])).abs()
        np.testing.assert_allclose(rec.flat(), [-1.0, 2.0, 3.0])
        assert ad.kink_hook is None

    def test_kink_recorder_clears_the_hook_when_its_body_raises(self):
        with pytest.raises(ValueError), KinkRecorder():
            assert ad.kink_hook is not None
            raise ValueError("inside the recorder")
        assert ad.kink_hook is None
