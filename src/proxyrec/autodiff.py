"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records itself on an implicit graph: the output Tensor keeps
references to its inputs and a closure that takes the output gradient and
routes it back to them. No closure refers to its own output, so a graph holds
no reference cycle. backward() on a scalar output walks the recorded trace
once in reverse topological order, accumulating into .grad on every tensor
that requires it. Gradients add up across fan-out, so a subexpression used
twice contributes twice.

The walk consumes the graph and frees it as it goes. When a node's turn
comes, every consumer has already run, so its gradient is complete; its
closure runs, and then the node drops its closure, its inputs and, unless it
is the root, its .grad. A recorded forward supports one backward(), after
which only the leaves and the root hold a gradient.

A closure hands each input a gradient array. One it made for that call alone
(a product, a quotient, a negation, a matmul, ...) becomes the input's
.grad as it is when the input has none yet, and later contributions add into
it in place. An array the closure shares or cannot write is copied first:
the output gradient that + passes to both operands and - to its left one,
reshape's view and sum's read-only broadcast. So no two tensors share a
gradient array. A kept first gradient may hold a -0.0 where a copy made with
+ 0.0 would not; that sign cannot reach a leaf whose gradient buffer starts
at +0.0, because +0.0 + -0.0 is +0.0.

Under no_grad(), or when no input requires a gradient, an op records
nothing: its output keeps neither inputs nor closure, and is freed with its
last reference.

Tensor.record(data, inputs, backward) is how an op records itself, and the
one way to add an op outside this module; its closure hands an input a
fresh gradient array through Tensor.accum. A fixed chain of numpy work can
so become a single op whose closure is a hand-written vector-Jacobian
product: selector.selection_logits and encoder.encode_prefixes are such
block ops. A block closure keeps only the arrays its product reads, and
hands each input the gradient, in the order, that the chain's own ops
would have.

add_rows is the row sum shared by gather's backward and the block ops: the
contributions to each table row, summed in index order with one weighted
np.bincount. When the index has fewer entries than the table has rows, the
gradient is row-sparse: the sums go into a block of just the distinct rows
the index names, which is then added into those rows of the table's
gradient, and a batch that gathers a few rows of a large table pays for
those rows, plus the table's own gradient array. Otherwise the table is
small next to the index: the sums cover the whole table, with no np.unique,
and the block is added into the whole gradient. Both forms sum each row in
the same order, so they give the same bits.

Conventions:
  * storage is always float64; inputs are coerced on construction
  * kinked activations take the left derivative at the kink
    (relu'(0) = 0, abs'(0) = 0, and the selector's leaky relu has slope 0.1
    at 0)
  * elementwise ops broadcast as numpy does; gradients are summed back onto
    the broadcast operand's own shape
  * matmul takes the two shapes the model records, (n, k) @ (k, m) and
    (n, k) @ (k,); sum() adds every element; l2norm, inner, sq_dist and
    softmax reduce the last axis

When the module-level kink_hook is set, relu and abs call it with their
pre-activation array, and each block op with each of its kinked
pre-activations, in call order, before it overwrites them in place; a hook
copies what it keeps. A finite-difference checker uses it to skip
coordinates whose perturbation lands on or crosses a kink, where there is no
two-sided derivative to agree with.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import GradientError, ShapeError

__all__ = ["Tensor", "add_rows", "no_grad"]

_grad_enabled = True
# called with every kinked pre-activation array: relu's, abs's and the block
# ops' (selector.selection_logits, encoder.encode_prefixes)
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


def add_rows(grad: np.ndarray | None, index: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The vector-Jacobian product of table[index] for a table of shape:
    entry i of g (index.shape + row shape) is summed into row index[i],
    each row's entries in index order, and the sums are added into grad.

    grad is the table's gradient so far, or None for none yet; it is
    updated in place and returned. An index with fewer entries than the
    table has rows sums into a block of just the rows it names, added into
    those rows of grad; a longer one sums over the whole table, with no
    np.unique. Both give the same bits.
    """
    n_rows, row_shape = shape[0], shape[1:]
    # a negative index names the same row as its positive form
    block_rows = index % n_rows
    sparse = index.size < n_rows
    if sparse:
        rows, block_rows = np.unique(block_rows, return_inverse=True)
        n_rows = rows.size
    width = int(np.prod(row_shape))
    # bincount sums each slot in index order, as np.add.at would
    slots = (block_rows.reshape(-1, 1) * width + np.arange(width)).ravel()
    block = np.bincount(slots, weights=g.reshape(-1), minlength=n_rows * width)
    block = block.reshape((n_rows,) + row_shape)
    if not sparse:
        if grad is None:
            return block
        grad += block
        return grad
    if grad is None:
        grad = np.zeros(shape)
    grad[rows] += block
    return grad


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
    def record(data: np.ndarray, prev: tuple["Tensor", ...], backward) -> "Tensor":
        """The output of one op over the inputs prev. backward(g) routes the
        output gradient g to prev and is kept only while recording: under
        no_grad, or when no input requires a gradient, the output holds
        neither, and whatever backward captured is freed with it."""
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in prev):
            out.requires_grad = True
            out._prev = prev
            out._backward = backward
        return out

    def accum(self, g: np.ndarray) -> None:
        """Add g, a temporary made for this call alone, into .grad; a first
        gradient is kept as it is."""
        if self.grad is None:
            # a 0-d result comes back as a numpy scalar
            self.grad = g if type(g) is np.ndarray else np.array(g)
        else:
            self.grad += g

    def _accum_copy(self, g: np.ndarray) -> None:
        """Add g, which may be shared or read-only, into .grad; a first
        gradient is copied."""
        if self.grad is None:
            self.grad = np.array(g)
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
                a._accum_copy(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum_copy(_unbroadcast(g, b.data.shape))

        return Tensor.record(data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a.accum(-g)

        return Tensor.record(-a.data, (a,), backward)

    def __sub__(self, other):
        other = Tensor._coerce(other)
        try:
            data = self.data - other.data
        except ValueError:
            raise ShapeError(f"sub: shapes {self.data.shape} and {other.data.shape} do not broadcast")
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum_copy(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(-g, b.data.shape))

        return Tensor.record(data, (a, b), backward)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        try:
            data = self.data * other.data
        except ValueError:
            raise ShapeError(f"mul: shapes {self.data.shape} and {other.data.shape} do not broadcast")
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a.accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor.record(data, (a, b), backward)

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
                a.accum(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor.record(data, (a, b), backward)

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
                a.accum(np.matmul(G, B.T))
            if b.requires_grad:
                b.accum(np.matmul(ad.T, G).reshape(bd.shape))

        return Tensor.record(np.matmul(ad, bd), (a, b), backward)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum_copy(g.reshape(a.data.shape))

        return Tensor.record(a.data.reshape(shape), (a,), backward)

    def gather(self, index):
        """Select rows along axis 0 with an integer index array of any shape.

        Each row's gradient sums its contributions in index order, through
        add_rows.
        """
        idx = np.asarray(index)
        if idx.dtype.kind not in "iu":
            raise ShapeError("gather: index must be integer")
        a = self

        def backward(g):
            if a.requires_grad:
                a.grad = add_rows(a.grad, idx, g, a.data.shape)

        return Tensor.record(a.data[idx], (a,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self):
        """Sum of every element."""
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum_copy(np.broadcast_to(g, a.data.shape))

        return Tensor.record(a.data.sum(), (a,), backward)

    def l2norm(self, keepdims: bool = False):
        """Euclidean norm over the last axis."""
        a = self
        norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=keepdims))

        def backward(g):
            if a.requires_grad:
                shape = a.data.shape
                n = _last_axis(norm, shape, keepdims)
                # guard the 0/0 cusp; the true subgradient there is taken as 0
                a.accum(_last_axis(g, shape, keepdims) * a.data / np.maximum(n, 1e-300))

        return Tensor.record(norm, (a,), backward)

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
                a.accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor.record(prod.sum(axis=-1, keepdims=keepdims), (a, b), backward)

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
                a.accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(-g, b.data.shape))

        return Tensor.record((diff * diff).sum(axis=-1), (a, b), backward)

    # -- nonlinearities ---------------------------------------------------

    def relu(self):
        a = self
        if kink_hook is not None:
            kink_hook(a.data)

        def backward(g):
            if a.requires_grad:
                a.accum(g * (a.data > 0.0))

        return Tensor.record(np.maximum(a.data, 0.0), (a,), backward)

    def abs(self):
        a = self
        if kink_hook is not None:
            kink_hook(a.data)

        def backward(g):
            if a.requires_grad:
                a.accum(g * np.sign(a.data))

        return Tensor.record(np.abs(a.data), (a,), backward)

    def softmax(self):
        """Numerically stable softmax along the last axis (max is subtracted first)."""
        a = self
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            if a.requires_grad:
                a.accum(y * (g - (g * y).sum(axis=-1, keepdims=True)))

        return Tensor.record(y, (a,), backward)

    # -- autodiff driver -----------------------------------------------------

    def backward(self):
        """Reverse pass from a scalar output; accumulates into .grad leaves.

        Each recorded node forgets its inputs, its closure and, unless it is
        the root, its gradient as soon as its closure has run, so the walk
        frees intermediate arrays and gradients as it goes. Afterwards only
        the leaves and the root hold a .grad; every other node's is None.
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
        while order:
            # reverse topological order: every consumer of node has run, so
            # its gradient is complete and nothing reads it after this
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._prev = ()
                if node is not self:
                    node.grad = None
