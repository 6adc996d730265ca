"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records itself on an implicit graph: the output Tensor keeps
references to its inputs and a closure that takes the output gradient and
routes it back to them. No closure refers to its own output, so a graph holds
no reference cycle. backward() on a scalar output walks the recorded trace
once in reverse topological order, accumulating into .grad on every tensor
that requires it. Gradients add up across fan-out, so a subexpression used
twice contributes twice. The walk consumes the graph: a recorded forward
supports one backward().

Under no_grad(), or when no input requires a gradient, an op records
nothing: its output keeps neither inputs nor closure, and is freed with its
last reference.

gather() has a row-sparse gradient: the contributions are summed per
distinct index into a block of just those rows, which is then added into the
operand's gradient. A batch that gathers a few rows of a large table pays for
those rows, plus one dense gradient buffer per table.

Variable-length sequences are packed along axis 0 as consecutive runs of
rows, described by each run's start row. segment_sum (through
np.add.reduceat) sums every run, repeat_rows copies row i over run i, and
each is the other's transpose; segment_softmax normalizes a score vector
within each run, with a hand-written vector-Jacobian product.

Conventions:
  * storage is always float64; inputs are coerced on construction
  * kinked activations take the left derivative at the kink
    (relu'(0) = 0, leaky_relu'(0) = slope, abs'(0) = 0)
  * broadcasting follows numpy; gradients are summed back onto the
    broadcast operand's own shape

finite_difference_check() compares analytic gradients against central
differences, skipping coordinates whose perturbation lands on or crosses an
activation kink (those points have no two-sided derivative to agree with).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import GradientError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "set_debug",
    "KinkRecorder",
    "FdReport",
    "finite_difference_check",
]

_grad_enabled = True
_debug_checks = False
_kink_recorder: "KinkRecorder | None" = None


def set_debug(on: bool) -> None:
    """Toggle per-op finiteness checks (NaN/Inf raise NumericError)."""
    global _debug_checks
    _debug_checks = bool(on)


@contextlib.contextmanager
def no_grad():
    """Run forward computations without recording backward closures."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class KinkRecorder:
    """Collects pre-activation arrays from kinked ops (relu, leaky_relu, abs).

    Used as a context manager around a forward evaluation. Two evaluations of
    the same deterministic graph produce aligned lists, which lets the
    finite-difference checker detect a kink sitting between or near the two
    perturbed points.
    """

    def __init__(self):
        self.preacts: list[np.ndarray] = []

    def __enter__(self):
        global _kink_recorder
        if _kink_recorder is not None:
            raise RuntimeError("nested KinkRecorder")
        _kink_recorder = self
        return self

    def __exit__(self, *exc):
        global _kink_recorder
        _kink_recorder = None
        return False

    def flat(self) -> np.ndarray:
        if not self.preacts:
            return np.empty(0)
        return np.concatenate([a.ravel() for a in self.preacts])


def _record_kink(arr: np.ndarray) -> None:
    if _kink_recorder is not None:
        _kink_recorder.preacts.append(np.array(arr, copy=True))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast up from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_like(grad, src_shape, axis, keepdims):
    """Re-inflate a reduced gradient so it broadcasts against src_shape."""
    if keepdims:
        return np.broadcast_to(grad, src_shape)
    axes = _axis_tuple(axis, len(src_shape))
    g = np.asarray(grad)
    for a in sorted(axes):
        g = np.expand_dims(g, a)
    return np.broadcast_to(g, src_shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, prev: tuple["Tensor", ...], backward, op: str) -> "Tensor":
        """The output of one op; backward(g) routes the output gradient g to
        prev and is kept only while recording."""
        if _debug_checks and not np.all(np.isfinite(data)):
            raise NumericError(f"non-finite values out of op '{op}'")
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in prev):
            out.requires_grad = True
            out._prev = prev
            out._backward = backward
        return out

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # one pass; adding +0.0 turns a -0.0 into +0.0 as zeros + g would
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def _accum_rows(self, rows: np.ndarray, block: np.ndarray) -> None:
        """Add block[i] into gradient row rows[i]; rows must be distinct."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[rows] += block

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    def __add__(self, other):
        other = Tensor._coerce(other)
        try:
            data = self.data + other.data
        except ValueError:
            raise ShapeError(f"add: shapes {self.data.shape} and {other.data.shape} do not broadcast")
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.data.shape))

        return Tensor._make(data, (a, b), backward, "add")

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(-g)

        return Tensor._make(-a.data, (a,), backward, "neg")

    def __sub__(self, other):
        other = Tensor._coerce(other)
        try:
            data = self.data - other.data
        except ValueError:
            raise ShapeError(f"sub: shapes {self.data.shape} and {other.data.shape} do not broadcast")
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g, b.data.shape))

        return Tensor._make(data, (a, b), backward, "sub")

    def __mul__(self, other):
        other = Tensor._coerce(other)
        try:
            data = self.data * other.data
        except ValueError:
            raise ShapeError(f"mul: shapes {self.data.shape} and {other.data.shape} do not broadcast")
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        try:
            data = self.data / other.data
        except ValueError:
            raise ShapeError(f"div: shapes {self.data.shape} and {other.data.shape} do not broadcast")
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._make(data, (a, b), backward, "div")

    # -- linear algebra ---------------------------------------------------

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other
        ad, bd = a.data, b.data
        if ad.ndim == 0 or bd.ndim == 0:
            raise ShapeError(f"matmul: operands must have ndim >= 1, got {ad.shape} and {bd.shape}")
        if ad.ndim == 1 and bd.ndim == 1:
            if ad.shape != bd.shape:
                raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} are incompatible")

            def backward_dot(g):
                if a.requires_grad:
                    a._accum(g * bd)
                if b.requires_grad:
                    b._accum(g * ad)

            return Tensor._make(np.dot(ad, bd), (a, b), backward_dot, "matmul")

        inner_a = ad.shape[-1]
        inner_b = bd.shape[0] if bd.ndim == 1 else bd.shape[-2]
        if inner_a != inner_b:
            raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} are incompatible")
        try:
            data = np.matmul(ad, bd)
        except ValueError:
            raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} do not broadcast")

        def backward(g):
            # promote 1-D operands the way numpy's matmul does, then reduce back
            G = g
            if ad.ndim == 1:
                G = np.expand_dims(G, -2)
            if bd.ndim == 1:
                G = np.expand_dims(G, -1)
            A = ad[None, :] if ad.ndim == 1 else ad
            B = bd[:, None] if bd.ndim == 1 else bd
            if a.requires_grad:
                ga = _unbroadcast(np.matmul(G, np.swapaxes(B, -1, -2)), A.shape)
                a._accum(ga.reshape(ad.shape))
            if b.requires_grad:
                gb = _unbroadcast(np.matmul(np.swapaxes(A, -1, -2), G), B.shape)
                b._accum(gb.reshape(bd.shape))

        return Tensor._make(data, (a, b), backward, "matmul")

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(g.reshape(a.data.shape))

        return Tensor._make(a.data.reshape(shape), (a,), backward, "reshape")

    def gather(self, index):
        """Select rows along axis 0 with an integer index array of any shape.

        The gradient is row-sparse: only the distinct rows the index names
        are touched, each summing its contributions in index order.
        """
        idx = np.asarray(index)
        if idx.dtype.kind not in "iu":
            raise ShapeError("gather: index must be integer")
        a = self

        def backward(g):
            if a.requires_grad:
                row_shape = a.data.shape[1:]
                # a negative index names the same row as its positive form
                rows, inv = np.unique(idx % a.data.shape[0], return_inverse=True)
                width = int(np.prod(row_shape))
                # bincount sums each slot in index order, as np.add.at would
                slots = (inv.reshape(-1, 1) * width + np.arange(width)).ravel()
                block = np.bincount(slots, weights=g.reshape(-1), minlength=rows.size * width)
                a._accum_rows(rows, block.reshape((rows.size,) + row_shape))

        return Tensor._make(a.data[idx], (a,), backward, "gather")

    # -- runs of rows --------------------------------------------------------
    # A run table splits axis 0 into consecutive non-empty runs: run i starts
    # at row starts[i] (strictly increasing, starts[0] == 0) and ends where
    # the next one starts, or at the last row.

    def segment_sum(self, starts):
        """Row sums of every run along axis 0: (R,) + the row shape."""
        idx = np.asarray(starts)
        lengths = np.diff(idx, append=self.data.shape[0])
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(np.repeat(g, lengths, axis=0))

        return Tensor._make(np.add.reduceat(a.data, idx, axis=0), (a,), backward, "segment_sum")

    def repeat_rows(self, lengths):
        """Row i repeated lengths[i] >= 1 times along axis 0; the transpose of
        segment_sum over the runs those lengths make."""
        counts = np.asarray(lengths)
        starts = np.cumsum(counts) - counts
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(np.add.reduceat(g, starts, axis=0))

        return Tensor._make(np.repeat(a.data, counts, axis=0), (a,), backward, "repeat_rows")

    def segment_softmax(self, starts):
        """Softmax of a 1-D vector within each run; each run's max is
        subtracted first, so a length-1 run is exactly 1.0."""
        idx = np.asarray(starts)
        lengths = np.diff(idx, append=self.data.shape[0])
        a = self
        shifted = a.data - np.repeat(np.maximum.reduceat(a.data, idx), lengths)
        e = np.exp(shifted)
        y = e / np.repeat(np.add.reduceat(e, idx), lengths)

        def backward(g):
            if a.requires_grad:
                a._accum(y * (g - np.repeat(np.add.reduceat(g * y, idx), lengths)))

        return Tensor._make(y, (a,), backward, "segment_softmax")

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(_expand_like(g, a.data.shape, axis, keepdims))

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward, "sum")

    def l2norm(self, axis=None, keepdims: bool = False):
        """Euclidean norm over the given axis (all axes when None)."""
        a = self
        sq = (a.data * a.data).sum(axis=axis, keepdims=keepdims)
        norm = np.sqrt(sq)

        def backward(g):
            if a.requires_grad:
                n = _expand_like(norm, a.data.shape, axis, keepdims)
                g = _expand_like(g, a.data.shape, axis, keepdims)
                # guard the 0/0 cusp; the true subgradient there is taken as 0
                a._accum(g * a.data / np.maximum(n, 1e-300))

        return Tensor._make(norm, (a,), backward, "l2norm")

    def inner(self, other, axis: int = -1, keepdims: bool = False):
        """Inner product sum(a * b) over one axis, with broadcasting."""
        other = Tensor._coerce(other)
        a, b = self, other
        try:
            prod = a.data * b.data
        except ValueError:
            raise ShapeError(f"inner: shapes {a.data.shape} and {b.data.shape} do not broadcast")
        data = prod.sum(axis=axis, keepdims=keepdims)
        shape = prod.shape

        def backward(g):
            g = _expand_like(g, shape, axis, keepdims)
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(data, (a, b), backward, "inner")

    def sq_dist(self, other, axis: int = -1):
        """Squared Euclidean distance sum((a-b)^2) over one axis."""
        other = Tensor._coerce(other)
        a, b = self, other
        try:
            diff = a.data - b.data
        except ValueError:
            raise ShapeError(f"sq_dist: shapes {a.data.shape} and {b.data.shape} do not broadcast")
        data = (diff * diff).sum(axis=axis)

        def backward(g):
            g = 2.0 * diff * _expand_like(g, diff.shape, axis, False)
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g, b.data.shape))

        return Tensor._make(data, (a, b), backward, "sq_dist")

    # -- nonlinearities ---------------------------------------------------

    def relu(self):
        a = self
        _record_kink(a.data)

        def backward(g):
            if a.requires_grad:
                a._accum(g * (a.data > 0.0))

        return Tensor._make(np.maximum(a.data, 0.0), (a,), backward, "relu")

    def leaky_relu(self, slope: float = 0.1):
        a = self
        _record_kink(a.data)

        def backward(g):
            if a.requires_grad:
                a._accum(g * np.where(a.data > 0.0, 1.0, slope))

        data = np.where(a.data > 0.0, a.data, slope * a.data)
        return Tensor._make(data, (a,), backward, "leaky_relu")

    def abs(self):
        a = self
        _record_kink(a.data)

        def backward(g):
            if a.requires_grad:
                a._accum(g * np.sign(a.data))

        return Tensor._make(np.abs(a.data), (a,), backward, "abs")

    def softmax(self, axis: int = -1):
        """Numerically stable softmax along one axis (max is subtracted first)."""
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            if a.requires_grad:
                a._accum(y * (g - (g * y).sum(axis=axis, keepdims=True)))

        return Tensor._make(y, (a,), backward, "softmax")

    # -- autodiff driver -----------------------------------------------------

    def backward(self):
        """Reverse pass from a scalar output; accumulates into .grad leaves.

        Afterwards every recorded node forgets its inputs and closure, so the
        batch's intermediate arrays and their gradients are freed as soon as
        the caller drops them, even while it still holds the root.
        """
        if self.data.size != 1:
            raise GradientError(f"backward requires a scalar output, got shape {self.data.shape}")
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
        for node in order:
            if node._prev:
                node._backward = None
                node._prev = ()


# -- finite-difference verification -----------------------------------------


@dataclass
class FdReport:
    """Outcome of one finite-difference sweep over named parameters."""

    max_rel_err: float
    per_tensor: dict[str, float] = field(default_factory=dict)
    checked: int = 0
    skipped: int = 0

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol


def _rel_err(a: float, b: float) -> float:
    # floor near the certification limit of central differences on an O(1)
    # objective: below ~1e-6 total magnitude the quotient is cancellation
    # noise in f(x+h)-f(x-h), not gradient signal
    return abs(a - b) / max(1e-6, abs(a) + abs(b))


def finite_difference_check(
    objective,
    leaves: dict[str, Tensor],
    *,
    h: float = 1e-5,
    max_coords: int = 1000,
    kink_margin: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> FdReport:
    """Compare analytic gradients of objective() against central differences.

    objective is a zero-argument callable returning a scalar Tensor built from
    the given leaves; it is re-evaluated with individual coordinates nudged by
    +/- h. Tensors larger than max_coords get a random coordinate subsample.
    A coordinate is skipped when either perturbed evaluation drives some
    kinked pre-activation within kink_margin of zero, or flips its sign
    between the two evaluations: the two-sided difference quotient is not
    meaningful across a kink.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for t in leaves.values():
        t.zero_grad()
    out = objective()
    out.backward()
    grads = {}
    for name, t in leaves.items():
        grads[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()

    report = FdReport(max_rel_err=0.0)
    for name, t in leaves.items():
        size = t.data.size
        if size > max_coords:
            coords = rng.choice(size, size=max_coords, replace=False)
        else:
            coords = np.arange(size)
        worst = 0.0
        for c in coords:
            saved = t.data.flat[c]
            t.data.flat[c] = saved + h
            with no_grad(), KinkRecorder() as rec_plus:
                f_plus = float(objective().data)
            t.data.flat[c] = saved - h
            with no_grad(), KinkRecorder() as rec_minus:
                f_minus = float(objective().data)
            t.data.flat[c] = saved
            pre_p = rec_plus.flat()
            pre_m = rec_minus.flat()
            near = (np.abs(pre_p) < kink_margin).any() or (np.abs(pre_m) < kink_margin).any()
            crossed = pre_p.size == pre_m.size and (np.sign(pre_p) != np.sign(pre_m)).any()
            if near or crossed:
                report.skipped += 1
                continue
            fd = (f_plus - f_minus) / (2.0 * h)
            err = _rel_err(float(grads[name].flat[c]), fd)
            worst = max(worst, err)
            report.checked += 1
        report.per_tensor[name] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    return report
