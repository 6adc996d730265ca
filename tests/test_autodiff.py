"""Gradient and contract tests for the reverse-mode engine.

The engine records ops through Tensor.record, Tensor.accum, Tensor.accum_rows
and Tensor.gather. Its former elementwise ops live on inside the block ops,
so their tests check the same math there: the loss head's sums, differences,
products, quotients, relu and abs (trainer.loss_head), the selection tail's
norms and softmax (selector.select), and the encoder's broadcast bias.
Central finite differences are the oracle; structural properties (fan-out
accumulation, linearity, each input's own gradient array) are asserted
directly over gathers and the test-side weighted_sum op.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from gradcheck import KinkRecorder, finite_difference_check, weighted_sum
from proxyrec import autodiff as ad
from proxyrec.autodiff import Tensor
from proxyrec.data import PredictionInstance
from proxyrec.encoder import encode_prefixes
from proxyrec.errors import GradientError, ShapeError
from proxyrec.scoring import distance, mode_terms
from proxyrec.selector import row_norms, select, selection_distribution
from proxyrec.trainer import TrainConfig, _distance_vjp, loss_head

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


# -- the loss head over leaf inputs ----------------------------------------------


def head_arrays(rng, B=3, C=2, d=4):
    """Inputs of loss_head: negative rows, short-term states, target rows and
    the stacked proxies and normals."""
    return {"neg": rng.normal(size=(B, C, d)), "s": rng.normal(size=(B, d)),
            "pos": rng.normal(size=(B, d)), "pv": rng.normal(size=(2, B, d))}


def head_cfg(mode="full", **over):
    base = dict(mode=mode, negatives=2, margin=5.0, lambda_dist=0.1, lambda_orthog=0.1)
    base.update(over)
    return TrainConfig(**base)


def run_head(arrays, cfg, requires_grad=True):
    """(J, the input leaves) of loss_head over the arrays the mode reads."""
    terms = mode_terms(cfg.mode)
    leaves = {n: Tensor(a, requires_grad=requires_grad) for n, a in arrays.items()}
    J, _ = loss_head(leaves["neg"], leaves["s"] if terms.short else None, leaves["pos"],
                     leaves["pv"] if terms.proxy else None, cfg)
    return J, leaves


def check_head(arrays, cfg, tol=1e-6):
    """Backward through loss_head against central differences on every input
    the mode reads; the root keeps its own gradient of 1."""
    J, leaves = run_head(arrays, cfg)
    J.backward()
    np.testing.assert_array_equal(J.grad, 1.0)
    for name, t in leaves.items():
        if t.grad is None:
            continue

        def f(x, name=name):
            return float(run_head({**arrays, name: x}, cfg, requires_grad=False)[0].data)

        want = numeric_grad(f, arrays[name].copy())
        np.testing.assert_allclose(t.grad, want, rtol=tol, atol=tol, err_msg=name)
    return leaves


# -- the selection tail on a tiny model ------------------------------------------


def tail_leaves(rng, items=6, d=3, k=4, users=2):
    u = lambda *s: Tensor(rng.uniform(-0.5, 0.5, size=s), requires_grad=True)
    return {"items": u(items + 1, d), "sel_pos": u(5, d), "sel_w1": u(d, 3),
            "sel_w2": u(3, k), "proxies": u(k, d), "normals": u(k, d),
            "user_bias": u(users + 1, k)}


TAIL_BATCH = [PredictionInstance(prefix=(1, 2), target=3, parent_items=(1, 2, 3, 4)),
              PredictionInstance(prefix=(5,), target=6, parent_items=(5, 6)),
              PredictionInstance(prefix=(2, 6, 1), target=4, parent_items=(2, 6, 1, 4))]
TAIL_ROWS = [1, 0, 2]


def tail_grad_check(leaves, names, tol=1e-6):
    """Backward through select's tail (non-strict) against central
    differences in the named leaves."""
    w = np.random.default_rng(0).normal(size=(2, len(TAIL_BATCH), leaves["proxies"].data.shape[1]))

    def f():
        return weighted_sum(select(TAIL_BATCH, TAIL_ROWS, leaves, 0.7, False)[1], w)

    f().backward()
    for name in names:
        arr = leaves[name].data

        def value(x, arr=arr):
            saved = arr.copy()
            arr[...] = x
            out = float(f().data)
            arr[...] = saved
            return out

        want = numeric_grad(value, arr.copy())
        np.testing.assert_allclose(leaves[name].grad, want, rtol=tol, atol=tol, err_msg=name)


class TestElementwise:
    def test_add_broadcast_grad(self):
        # the encoder adds its output bias to every row: the bias gradient
        # sums the rows' gradients
        rng = np.random.default_rng(1)
        u = lambda *s: Tensor(rng.uniform(-0.5, 0.5, size=s), requires_grad=True)
        leaves = {"items": u(6, 3), "enc_pos": u(4, 3), "enc_wq": u(3, 3), "enc_wk": u(3, 3),
                  "enc_w1": u(3, 3), "enc_b1": u(3), "enc_w2": u(3, 3), "enc_b2": u(3)}
        w = rng.normal(size=(4, 3))
        weighted_sum(encode_prefixes([(1, 2), (3,), (4, 5, 1), (2,)], leaves), w).backward()
        np.testing.assert_allclose(leaves["enc_b2"].grad, w.sum(axis=0), rtol=1e-15)

    def test_sub_mul_div_grads(self):
        # q - x, (x.v) v and |v.p| / (||p|| + EPS) in the head, every hinge active
        check_head(head_arrays(RNG), head_cfg())

    def test_scalar_operand_fastpaths(self):
        # the margin and both lambdas are constants: J is affine in each
        # lambda, and its gradient moves linearly with it
        arrays = head_arrays(np.random.default_rng(3))
        grads = {}
        for lam in (0.0, 1.0, 2.0):
            J, leaves = run_head(arrays, head_cfg(lambda_dist=lam, lambda_orthog=lam))
            J.backward()
            grads[lam] = (float(J.data), {n: t.grad for n, t in leaves.items()})
        (j0, g0), (j1, g1), (j2, g2) = grads[0.0], grads[1.0], grads[2.0]
        assert j2 - j0 == pytest.approx(2.0 * (j1 - j0), rel=1e-12)
        for name in g0:
            np.testing.assert_allclose(g2[name] - g0[name], 2.0 * (g1[name] - g0[name]),
                                       rtol=1e-9, atol=1e-12)

    def test_relu_and_abs(self):
        # the hinge passes a negative row's gradient only where its
        # pre-activation is positive; the orthogonality term's v share is
        # lambda * sign(v.p) * p / (||p|| + EPS)
        arrays = head_arrays(np.random.default_rng(4))
        cfg = head_cfg("short_only", margin=0.0, lambda_dist=0.0)
        J, leaves = run_head(arrays, cfg)
        J.backward()
        s, neg, pos = arrays["s"], arrays["neg"], arrays["pos"]
        pre = ((s - pos) ** 2).sum(-1)[:, None] - ((s[:, None] - neg) ** 2).sum(-1)
        assert (pre > 0).any() and (pre < 0).any()
        active = np.abs(leaves["neg"].grad).sum(-1) > 0
        np.testing.assert_array_equal(active, pre > 0)

        # negative rows far away leave every hinge term below 0
        cfg = head_cfg("no_projection", margin=0.0, lambda_dist=0.0)
        J, leaves = run_head({**arrays, "neg": arrays["neg"] + 100.0}, cfg)
        J.backward()
        p, v = arrays["pv"]
        want = 0.1 * np.sign((v * p).sum(-1))[:, None] * p / (row_norms(p)[:, None] + 1e-12)
        np.testing.assert_allclose(leaves["pv"].grad[1], want, rtol=1e-12)

    def test_kink_left_derivative_at_zero(self):
        # a hinge pre-activation of exactly 0 (a negative row equal to the
        # target's) and v.p of exactly 0 pass no gradient: relu'(0) = abs'(0) = 0
        arrays = head_arrays(np.random.default_rng(5), B=1, C=1)
        arrays["neg"][:] = arrays["pos"][:, None]
        arrays["pv"][:, 0] = [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, -1.0]]
        cfg = head_cfg("no_projection", margin=0.0, lambda_dist=0.0, negatives=1)
        J, leaves = run_head(arrays, cfg)
        J.backward()
        np.testing.assert_array_equal(leaves["neg"].grad, 0.0)
        np.testing.assert_array_equal(leaves["pv"].grad[1], 0.0)


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
        # the tail's two products over a batch of 3 and a bank of 4: pi @
        # normals, (3, 4) @ (4, 5), and pi @ the bank's row norms, (3, 4) @
        # (4,), through which the proxies' norms enter beside pi @ proxies
        n, k = sa
        assert n == len(TAIL_BATCH)
        leaves = tail_leaves(np.random.default_rng(6), d=5, k=k)
        tail_grad_check(leaves, ("normals",) if len(sb) == 2 else ("proxies",))

    def test_gather_scatter_adds_for_repeats(self):
        table = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([2, 2, 5])
        weighted_sum(table.gather(idx), np.ones((3, 3))).backward()
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
        weighted_sum(table.gather(i1), w1, table.gather(i2), w2).backward()
        buf1, buf2 = np.zeros_like(data), np.zeros_like(data)
        np.add.at(buf1, i1, w1)
        np.add.at(buf2, i2, w2)
        np.testing.assert_array_equal(table.grad, buf1 + buf2)

    def test_gather_nd_index(self):
        table = Tensor(RNG.normal(size=(8, 2)), requires_grad=True)
        idx = np.array([[0, 1], [1, 7]])
        out = table.gather(idx)
        assert out.data.shape == (2, 2, 2)
        weighted_sum(out, np.ones((2, 2, 2))).backward()
        assert table.grad[1].sum() == pytest.approx(2 * 2)

    def test_gather_rejects_a_float_index(self):
        table = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="index must be integer"):
            table.gather(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("row_shape", [(), (3,)])
    @pytest.mark.parametrize("index_2d", [False, True])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_dense_and_row_sparse_gather_backward_are_bit_equal(self, row_shape, index_2d, extra):
        # an index at least as long as the table sums over the whole table;
        # the same gather from a table with more rows than index entries
        # takes the row-sparse path, and both must match np.add.at
        rng = np.random.default_rng(5)
        n = 6
        size = n + extra
        idx = rng.integers(-n, n, size=size)
        # one row named three times, once by its negative form: summed in
        # index order 1 + 1e-16 + 1e-16 rounds to 1, in any other to more
        idx[:3] = [2, 2 - n, 2]
        w = rng.normal(size=(size,) + row_shape)
        w[:3] = np.array([1.0, 1e-16, 1e-16]).reshape((3,) + (1,) * len(row_shape))
        if index_2d:
            idx, w = idx.reshape(1, size), w.reshape((1, size) + row_shape)
        want = np.zeros((n,) + row_shape)
        np.add.at(want, idx, w)
        for start in ("zeroed", "none"):
            table = Tensor(rng.normal(size=(n,) + row_shape), requires_grad=True)
            sparse = Tensor(rng.normal(size=(n + size + 1,) + row_shape), requires_grad=True)
            if start == "zeroed":
                table.grad = np.zeros_like(table.data)
                sparse.grad = np.zeros_like(sparse.data)
            weighted_sum(table.gather(idx), w).backward()
            weighted_sum(sparse.gather(idx % n), w).backward()
            np.testing.assert_array_equal(table.grad, want)
            np.testing.assert_array_equal(table.grad, sparse.grad[:n])
            np.testing.assert_array_equal(sparse.grad[n:], 0.0)


class TestReductions:
    def test_sum_grad(self):
        # weighted_sum, the scalar the tests differentiate, adds every element
        x = RNG.normal(size=(3, 5))
        t = Tensor(x.copy(), requires_grad=True)
        out = weighted_sum(t, np.ones_like(x))
        assert out.data.shape == ()
        assert float(out.data) == pytest.approx(x.sum(), rel=1e-15)
        out.backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_l2norm_grads(self):
        # the tail's row norms: of the bank (proxies) and of the normals'
        # mixture, through the rescale and the normalization
        x = RNG.normal(size=(4, 3)) + 0.1
        np.testing.assert_allclose(row_norms(x), np.linalg.norm(x, axis=-1), rtol=1e-15)
        np.testing.assert_allclose(row_norms(x, keepdims=True),
                                   np.linalg.norm(x, axis=-1, keepdims=True), rtol=1e-15)
        tail_grad_check(tail_leaves(np.random.default_rng(2)), ("proxies", "normals"))

    def test_l2norm_at_zero_is_guarded(self):
        # a zero bank row has norm 0: its share of the gradient is taken as 0
        leaves = tail_leaves(np.random.default_rng(3))
        leaves["proxies"].data[1] = 0.0
        _, pv = select(TAIL_BATCH, TAIL_ROWS, leaves, 0.7, False)
        weighted_sum(pv, np.ones(pv.data.shape)).backward()
        assert np.all(np.isfinite(leaves["proxies"].grad))

    def test_inner_and_sq_dist_broadcast(self):
        # distance over the last axis, a query row (B, 1, d) against its
        # candidates (B, C, d); its VJP sums the query's share over them
        a = RNG.normal(size=(2, 1, 4))
        b = RNG.normal(size=(2, 3, 4))
        np.testing.assert_allclose(distance(a, b, "dot_product"), -(a * b).sum(-1), rtol=1e-12)
        np.testing.assert_allclose(distance(a, b, "full"), ((a - b) ** 2).sum(-1), rtol=1e-12)
        g = RNG.normal(size=(2, 3))
        for mode, dot in (("dot_product", True), ("full", False)):
            g_a, g_b = _distance_vjp(g, a, b, dot)
            f_a = lambda x: float((distance(x, b, mode) * g).sum())
            f_b = lambda x: float((distance(a, x, mode) * g).sum())
            np.testing.assert_allclose(g_a, numeric_grad(f_a, a.copy()), rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(g_b, numeric_grad(f_b, b.copy()), rtol=1e-5, atol=1e-7)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = RNG.normal(size=(10, 7)) * 5
        y = selection_distribution(x, 1.0)
        np.testing.assert_allclose(y.sum(-1), np.ones(10), atol=1e-12)
        assert (y > 0).all()

    def test_shift_invariance(self):
        x = RNG.normal(size=(64,))
        base = selection_distribution(x, 1.0)
        for c in (1.0, -50.0, 1234.5):
            np.testing.assert_allclose(selection_distribution(x + c, 1.0), base, atol=1e-10)

    def test_extreme_logits_stay_finite(self):
        y = selection_distribution(np.array([1e4, 0.0, -1e4]), 1.0)
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(1.0)

    def test_softmax_grad(self):
        # the user bias enters the tail before the softmax and nowhere else
        tail_grad_check(tail_leaves(np.random.default_rng(4)), ("user_bias",))


class TestGraphStructure:
    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        w = np.array([1.5, -0.5])
        weighted_sum(x, w, x, w).backward()
        np.testing.assert_allclose(x.grad, 2 * w)

    def test_shared_subexpression_equals_expanded(self):
        xv, w = RNG.normal(size=(4, 3)), RNG.normal(size=(5, 3))
        idx = np.array([3, 0, 3, 1, 2])
        x1 = Tensor(xv.copy(), requires_grad=True)
        shared = x1.gather(idx)
        weighted_sum(shared, w, shared, w).backward()
        x2 = Tensor(xv.copy(), requires_grad=True)
        weighted_sum(x2.gather(idx), w, x2.gather(idx), w).backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-10)

    def test_gradient_linearity(self):
        xv = RNG.normal(size=(5, 2))
        wf, wg = RNG.normal(size=(3, 2)), RNG.normal(size=(4, 2))
        i_f, i_g = np.array([0, 4, 0]), np.array([1, 1, 2, 3])
        a, b = 2.5, -1.25

        def g_of(*terms):
            t = Tensor(xv.copy(), requires_grad=True)
            weighted_sum(*[x for idx, w in terms for x in (t.gather(idx), w)]).backward()
            return t.grad

        combo = g_of((i_f, a * wf), (i_g, b * wg))
        np.testing.assert_allclose(combo, a * g_of((i_f, wf)) + b * g_of((i_g, wg)), atol=1e-10)

    def test_backward_frees_the_graph_without_a_collector(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            h = x.gather(np.array([2, 0, 2]))
            root = weighted_sum(h, RNG.normal(size=(3, 4)))
            probe = weakref.ref(h)
            root.backward()
            del root, h
            assert probe() is None
        finally:
            if enabled:
                gc.enable()
        assert x.grad is not None and x.grad.shape == (3, 4)

    def test_backward_releases_intermediate_gradients(self):
        # each step's gradients are dropped once consumed: the walk holds a
        # few arrays at a time, not one per recorded node
        x = Tensor(RNG.normal(size=(2000, 64)), requires_grad=True)
        nodes, h = [], x
        for _ in range(36):
            h = h.gather(RNG.permutation(2000))
            nodes.append(h)
        root = weighted_sum(h, np.ones((2000, 64)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            root.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.data.nbytes, f"backward peaked at {peak / 1e6:.1f} MB"
        assert all(node.grad is None for node in nodes)
        assert x.grad.shape == x.data.shape
        np.testing.assert_array_equal(root.grad, 1.0)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            t.gather(np.array([0, 1])).backward()

    def test_unrecorded_output_is_freed_without_a_collector(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            h = x.gather(np.array([1, 1, 0]))
            out = weighted_sum(h, RNG.normal(size=(3, 4)))
            probe = weakref.ref(h)
            del h, out
            assert probe() is None
        finally:
            if enabled:
                gc.enable()

    def test_ops_over_inputs_that_need_no_gradient_record_nothing(self):
        t = Tensor(np.ones(3))
        out = weighted_sum(t.gather(np.array([0, 2])), np.full(2, 2.0))
        assert not out.requires_grad and out._prev == ()

    def test_accumulating_into_a_tensor_that_needs_no_gradient_does_nothing(self):
        # a block closure hands every input its share; one that needs no
        # gradient keeps none, whichever call hands it
        t = Tensor(np.ones((5, 2)))
        for hand in (
            lambda: t.accum(np.ones((5, 2))),
            lambda: t.accum_rows(np.array([0, 4, 0]), np.ones((3, 2))),  # row-sparse
            lambda: t.accum_rows(np.arange(6) % 5, np.ones((6, 2))),  # dense
        ):
            hand()
            assert t.grad is None


class TestAdoptedGradients:
    """accum keeps a first gradient without copying it, so a closure hands
    each input an array of its own: a later in-place addition into one
    input's gradient must not reach another's, nor the root's. The loss head
    hands the query's gradient to p and to the short-term state, and each
    then takes more in place; its candidate rows take their projections'
    shares after their distances'."""

    @pytest.mark.parametrize("second", ["mul", "gather"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_add_operands_get_their_own_copies(self, second, swap):
        # the query adds p and the short-term state, and both take its
        # gradient; then s takes its projection's product in place (mul:
        # full, or dot_product when swapped), or p takes the orthogonality
        # term's while the candidate rows keep their gathered, unprojected
        # shares (gather: no_projection, with the distance regularizer when
        # swapped)
        mode = ("full", "dot_product") if second == "mul" else ("no_projection",) * 2
        cfg = head_cfg(mode[swap], lambda_dist=0.1 if swap else 0.0)
        leaves = check_head(head_arrays(RNG), cfg)
        grads = [t.grad for t in leaves.values()]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1:])

    @pytest.mark.parametrize("op", ["add", "sub"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_root_gradient_is_not_handed_on(self, op, swap):
        # J adds its regularizers to the hinge (add), or has the hinge alone,
        # which subtracts the negatives' distances (sub); the root keeps its
        # own gradient of 1 while the inputs take theirs
        lam = 0.1 if op == "add" else 0.0
        mode = "proxy_only" if swap else "short_only"
        check_head(head_arrays(RNG), head_cfg(mode, lambda_dist=lam, lambda_orthog=lam))

    @pytest.mark.parametrize("swap", [False, True])
    def test_sum_broadcast_then_another_contribution(self, swap):
        # the hinge's sum broadcasts J's gradient over the (B, C) terms; the
        # targets' distances then take the regularizer's share in place, before
        # (swap) or without the negatives' projections
        mode = "full" if swap else "no_projection"
        check_head(head_arrays(RNG, C=3), head_cfg(mode, negatives=3))

    def test_reshape_view_is_not_kept(self):
        # the root keeps its gradient, so a leaf whose first gradient came
        # from it must not add later contributions into the root's array
        xv = RNG.normal(size=(1, 1))
        t = Tensor(xv.copy(), requires_grad=True)
        root = weighted_sum(t, np.ones((1, 1)))
        root.backward()
        weighted_sum(t, np.full((1, 1), 3.0)).backward()
        np.testing.assert_array_equal(root.grad, 1.0)
        np.testing.assert_allclose(t.grad, [[4.0]], rtol=1e-12)


class TestFiniteDifferenceCheck:
    def test_passes_on_smooth_composite(self):
        rng = np.random.default_rng(7)
        leaves = {
            "w": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            "x": Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        }

        def objective():
            # pv's two halves read w's rows; the head scores x's rows
            pv = leaves["w"].gather(np.array([[0, 1, 2], [3, 1, 0]]))
            s = leaves["x"].gather(np.array([4, 2, 0]))
            neg = leaves["x"].gather(np.array([[1, 3], [2, 0], [4, 1]]))
            return loss_head(neg, s, leaves["x"].gather(np.array([3, 4, 1])), pv,
                             head_cfg(margin=100.0))[0]

        report = finite_difference_check(objective, leaves)
        assert report.ok(1e-4)
        assert report.skipped == 0
        assert report.checked == 4 * 3 + 5 * 3

    def test_hinge_at_margin_is_skipped(self):
        # a hinge term at exactly 0 has no two-sided derivative; the checker
        # must flag the coordinates that reach it instead of failing on them
        arrays = head_arrays(np.random.default_rng(8), B=1, C=1)
        arrays["neg"][:] = arrays["pos"][:, None]
        leaves = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}
        cfg = head_cfg("short_only", margin=0.0, lambda_dist=0.0, negatives=1)
        # every perturbation leaves the hinge at 0 or moves it across 0
        report = finite_difference_check(
            lambda: loss_head(leaves["neg"], leaves["s"], leaves["pos"], None, cfg)[0],
            {n: leaves[n] for n in ("neg", "s", "pos")}, h=1e-5)
        assert report.skipped >= 1
        assert report.ok(1e-4)

    def test_detects_a_wrong_gradient(self):
        # sabotage: objective whose recorded backward is deliberately wrong
        x = Tensor(np.array([1.5, -0.7]), requires_grad=True)

        def objective():
            def backward(g):
                x.accum(g * 2.0)  # claims slope 2, real slope 3

            return weighted_sum(Tensor.record(x.data * 3.0, (x,), backward), np.ones(2))

        report = finite_difference_check(objective, {"x": x})
        assert not report.ok(1e-4)

    def test_subsampling_large_tensors(self):
        rng = np.random.default_rng(3)
        leaves = {"big": Tensor(rng.normal(size=(40, 40)), requires_grad=True)}
        w = rng.normal(size=(30, 40))
        idx = rng.integers(0, 40, size=30)
        report = finite_difference_check(
            lambda: weighted_sum(leaves["big"].gather(idx), w), leaves, max_coords=100
        )
        assert report.checked == 100
        assert report.ok(1e-4)

    def test_kink_recorder_collects_preacts(self):
        with KinkRecorder() as rec:
            ad.kink(np.array([-1.0, 2.0]))
            ad.kink(np.array([[3.0]]))
        np.testing.assert_allclose(rec.flat(), [-1.0, 2.0, 3.0])
        assert ad.kink_hook is None

    def test_kink_recorder_clears_the_hook_when_its_body_raises(self):
        with pytest.raises(ValueError), KinkRecorder():
            assert ad.kink_hook is not None
            raise ValueError("inside the recorder")
        assert ad.kink_hook is None
