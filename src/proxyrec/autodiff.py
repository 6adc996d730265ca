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
those rows, plus the table's own gradient array.

Variable-length sequences are packed along axis 0 as consecutive runs of
rows, described by each run's start row. segment_sum (through
np.add.reduceat) sums every run, repeat_rows copies row i over run i, and
each is the other's transpose; segment_softmax normalizes a score vector
within each run, with a hand-written vector-Jacobian product.

Conventions:
  * storage is always float64; inputs are coerced on construction
  * kinked activations take the left derivative at the kink
    (relu'(0) = 0, leaky_relu'(0) = slope, abs'(0) = 0)
  * elementwise ops broadcast as numpy does; gradients are summed back onto
    the broadcast operand's own shape
  * matmul takes the two shapes the model records, (n, k) @ (k, m) and
    (n, k) @ (k,); sum() adds every element; l2norm, inner, sq_dist and
    softmax reduce the last axis

When the module-level kink_hook is set, relu, leaky_relu and abs call it with
their pre-activation array. A finite-difference checker uses it to skip
coordinates whose perturbation lands on or crosses a kink, where there is no
two-sided derivative to agree with.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import GradientError, ShapeError

__all__ = ["Tensor", "no_grad"]

_grad_enabled = True
# called with the pre-activation array of every relu, leaky_relu and abs
kink_hook = None


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


def _last_axis(grad: np.ndarray, shape: tuple[int, ...], keepdims: bool = False) -> np.ndarray:
    """Broadcast a gradient reduced over the last axis back over shape."""
    return np.broadcast_to(grad if keepdims else grad[..., None], shape)


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
    def _make(data: np.ndarray, prev: tuple["Tensor", ...], backward) -> "Tensor":
        """The output of one op; backward(g) routes the output gradient g to
        prev and is kept only while recording."""
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

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

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

        return Tensor._make(data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(-g)

        return Tensor._make(-a.data, (a,), backward)

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

        return Tensor._make(data, (a, b), backward)

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

        return Tensor._make(data, (a, b), backward)

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

        return Tensor._make(data, (a, b), backward)

    # -- linear algebra ---------------------------------------------------

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other
        ad, bd = a.data, b.data
        if ad.ndim != 2 or bd.ndim not in (1, 2) or ad.shape[1] != bd.shape[0]:
            raise ShapeError(
                f"matmul: shapes {ad.shape} and {bd.shape} are not (n, k) @ (k, m) or (n, k) @ (k,)"
            )

        def backward(g):
            # a vector operand b is the column (k, 1), and g the column (n, 1)
            G = g if bd.ndim == 2 else g[:, None]
            B = bd if bd.ndim == 2 else bd[:, None]
            if a.requires_grad:
                a._accum(np.matmul(G, B.T))
            if b.requires_grad:
                b._accum(np.matmul(ad.T, G).reshape(bd.shape))

        return Tensor._make(np.matmul(ad, bd), (a, b), backward)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(g.reshape(a.data.shape))

        return Tensor._make(a.data.reshape(shape), (a,), backward)

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
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                a.grad[rows] += block.reshape((rows.size,) + row_shape)

        return Tensor._make(a.data[idx], (a,), backward)

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

        return Tensor._make(np.add.reduceat(a.data, idx, axis=0), (a,), backward)

    def repeat_rows(self, lengths):
        """Row i repeated lengths[i] >= 1 times along axis 0; the transpose of
        segment_sum over the runs those lengths make."""
        counts = np.asarray(lengths)
        starts = np.cumsum(counts) - counts
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(np.add.reduceat(g, starts, axis=0))

        return Tensor._make(np.repeat(a.data, counts, axis=0), (a,), backward)

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

        return Tensor._make(y, (a,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self):
        """Sum of every element."""
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(np.broadcast_to(g, a.data.shape))

        return Tensor._make(a.data.sum(), (a,), backward)

    def l2norm(self, keepdims: bool = False):
        """Euclidean norm over the last axis."""
        a = self
        norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=keepdims))

        def backward(g):
            if a.requires_grad:
                shape = a.data.shape
                n = _last_axis(norm, shape, keepdims)
                # guard the 0/0 cusp; the true subgradient there is taken as 0
                a._accum(_last_axis(g, shape, keepdims) * a.data / np.maximum(n, 1e-300))

        return Tensor._make(norm, (a,), backward)

    def inner(self, other, keepdims: bool = False):
        """Inner product sum(a * b) over the last axis, with broadcasting."""
        other = Tensor._coerce(other)
        a, b = self, other
        try:
            prod = a.data * b.data
        except ValueError:
            raise ShapeError(f"inner: shapes {a.data.shape} and {b.data.shape} do not broadcast")
        shape = prod.shape

        def backward(g):
            g = _last_axis(g, shape, keepdims)
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(prod.sum(axis=-1, keepdims=keepdims), (a, b), backward)

    def sq_dist(self, other):
        """Squared Euclidean distance sum((a-b)^2) over the last axis."""
        other = Tensor._coerce(other)
        a, b = self, other
        try:
            diff = a.data - b.data
        except ValueError:
            raise ShapeError(f"sq_dist: shapes {a.data.shape} and {b.data.shape} do not broadcast")

        def backward(g):
            g = 2.0 * diff * _last_axis(g, diff.shape)
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g, b.data.shape))

        return Tensor._make((diff * diff).sum(axis=-1), (a, b), backward)

    # -- nonlinearities ---------------------------------------------------

    def relu(self):
        a = self
        if kink_hook is not None:
            kink_hook(a.data)

        def backward(g):
            if a.requires_grad:
                a._accum(g * (a.data > 0.0))

        return Tensor._make(np.maximum(a.data, 0.0), (a,), backward)

    def leaky_relu(self, slope: float = 0.1):
        a = self
        if kink_hook is not None:
            kink_hook(a.data)

        def backward(g):
            if a.requires_grad:
                a._accum(g * np.where(a.data > 0.0, 1.0, slope))

        data = np.where(a.data > 0.0, a.data, slope * a.data)
        return Tensor._make(data, (a,), backward)

    def abs(self):
        a = self
        if kink_hook is not None:
            kink_hook(a.data)

        def backward(g):
            if a.requires_grad:
                a._accum(g * np.sign(a.data))

        return Tensor._make(np.abs(a.data), (a,), backward)

    def softmax(self):
        """Numerically stable softmax along the last axis (max is subtracted first)."""
        a = self
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            if a.requires_grad:
                a._accum(y * (g - (g * y).sum(axis=-1, keepdims=True)))

        return Tensor._make(y, (a,), backward)

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
