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

An op records only when one of its inputs requires a gradient. Otherwise
its output keeps neither inputs nor closure and is freed with its last
reference, so a forward over leaves that need none records nothing.

An op outside this module is written with four calls:
  * Tensor.record(data, inputs, backward) returns the output, which keeps
    inputs and the closure backward(g) only while recording.
  * Tensor.accum(g), in the closure, hands an input a fresh gradient array.
  * Tensor.accum_rows(index, g), in the closure, hands a table input the
    gradient of table[index]: each row's contributions, summed in index
    order with one weighted np.bincount. An index shorter than the table is
    row-sparse: it sums into a block of just the distinct rows it names,
    added into those rows of the table's gradient, so a batch that gathers
    a few rows of a large table pays for those rows (plus the gradient
    array). A longer index sums over the whole table with no np.unique.
    Both forms sum each row in the same order, so they give the same bits.
  * kink(pre), in the forward, hands a kinked pre-activation to the
    module-level kink_hook, when it is set, before the op overwrites it in
    place; a hook copies what it keeps. relu and abs call it too. A
    finite-difference checker uses it to skip coordinates whose
    perturbation lands on or crosses a kink, where there is no two-sided
    derivative to agree with.
accum and accum_rows do nothing for an input that requires no gradient, so a
closure hands every input its share without asking. (The two-input ops
below still ask before they compute an operand's share, so a coerced
constant such as a margin or a temperature costs no product.) A fixed chain
of numpy work can so become a single op whose closure is a hand-written
vector-Jacobian product: selector.selection_logits and
encoder.encode_prefixes are such block ops. A block closure keeps only the
arrays its product reads, and hands each input the gradient, in the order,
that the chain's own ops would have.

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
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import GradientError, ShapeError

__all__ = ["Tensor", "kink"]

# called by kink with every kinked pre-activation array
kink_hook = None


def kink(pre: np.ndarray) -> None:
    """Report a kinked pre-activation to kink_hook, when it is set."""
    if kink_hook is not None:
        kink_hook(pre)


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
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def record(data: np.ndarray, prev: tuple["Tensor", ...], backward) -> "Tensor":
        """The output of one op over the inputs prev. backward(g) routes the
        output gradient g to prev and is kept only while recording: when no
        input requires a gradient, the output holds neither, and whatever
        backward captured is freed with it."""
        out = Tensor(data)
        if any(p.requires_grad for p in prev):
            out.requires_grad = True
            out._prev = prev
            out._backward = backward
        return out

    def accum(self, g: np.ndarray) -> None:
        """Add g, a temporary made for this call alone, into .grad; a first
        gradient is kept as it is. Does nothing when no gradient is
        required."""
        if not self.requires_grad:
            return
        if self.grad is None:
            # a 0-d result comes back as a numpy scalar
            self.grad = g if type(g) is np.ndarray else np.array(g)
        else:
            self.grad += g

    def _accum_copy(self, g: np.ndarray) -> None:
        """accum for a g that may be shared or read-only: a first gradient
        is a copy of it."""
        self.accum(np.array(g) if self.grad is None else g)

    def accum_rows(self, index: np.ndarray, g: np.ndarray) -> None:
        """Add the vector-Jacobian product of self[index] into .grad: entry
        i of g (index.shape + row shape) is summed into row index[i], each
        row's entries in index order; row-sparse when the index is shorter
        than the table. Does nothing when no gradient is required."""
        if not self.requires_grad:
            return
        shape = self.data.shape
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
            self.accum(block)
            return
        if self.grad is None:
            self.grad = np.zeros(shape)
        self.grad[rows] += block

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def _operand(self, other, name: str, forward):
        """other as a Tensor, and forward(self.data, other.data); shapes that
        do not broadcast raise ShapeError naming the op."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        try:
            return other, forward(self.data, other.data)
        except ValueError:
            raise ShapeError(f"{name}: shapes {self.data.shape} and {other.data.shape} do not broadcast")

    def __add__(self, other):
        a = self
        b, data = a._operand(other, "add", operator.add)

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
            a.accum(-g)

        return Tensor.record(-a.data, (a,), backward)

    def __sub__(self, other):
        a = self
        b, data = a._operand(other, "sub", operator.sub)

        def backward(g):
            if a.requires_grad:
                a._accum_copy(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(-g, b.data.shape))

        return Tensor.record(data, (a, b), backward)

    def __mul__(self, other):
        a = self
        b, data = a._operand(other, "mul", operator.mul)

        def backward(g):
            if a.requires_grad:
                a.accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor.record(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a = self
        b, data = a._operand(other, "div", operator.truediv)

        def backward(g):
            if a.requires_grad:
                a.accum(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b.accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor.record(data, (a, b), backward)

    # -- linear algebra ---------------------------------------------------

    def __matmul__(self, other):
        a = self
        b = other if isinstance(other, Tensor) else Tensor(other)
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
            a._accum_copy(g.reshape(a.data.shape))

        return Tensor.record(a.data.reshape(shape), (a,), backward)

    def gather(self, index):
        """Select rows along axis 0 with an integer index array of any shape.

        Each row's gradient sums its contributions in index order, through
        accum_rows.
        """
        idx = np.asarray(index)
        if idx.dtype.kind not in "iu":
            raise ShapeError("gather: index must be integer")
        a = self

        def backward(g):
            a.accum_rows(idx, g)

        return Tensor.record(a.data[idx], (a,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self):
        """Sum of every element."""
        a = self

        def backward(g):
            a._accum_copy(np.broadcast_to(g, a.data.shape))

        return Tensor.record(a.data.sum(), (a,), backward)

    def l2norm(self, keepdims: bool = False):
        """Euclidean norm over the last axis."""
        a = self
        norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=keepdims))

        def backward(g):
            shape = a.data.shape
            n = _last_axis(norm, shape, keepdims)
            # guard the 0/0 cusp; the true subgradient there is taken as 0
            a.accum(_last_axis(g, shape, keepdims) * a.data / np.maximum(n, 1e-300))

        return Tensor.record(norm, (a,), backward)

    def inner(self, other, keepdims: bool = False):
        """Inner product sum(a * b) over the last axis, with broadcasting."""
        a = self
        b, prod = a._operand(other, "inner", operator.mul)
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
        a = self
        b, diff = a._operand(other, "sq_dist", operator.sub)

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
        kink(a.data)

        def backward(g):
            a.accum(g * (a.data > 0.0))

        return Tensor.record(np.maximum(a.data, 0.0), (a,), backward)

    def abs(self):
        a = self
        kink(a.data)

        def backward(g):
            a.accum(g * np.sign(a.data))

        return Tensor.record(np.abs(a.data), (a,), backward)

    def softmax(self):
        """Numerically stable softmax along the last axis (max is subtracted first)."""
        a = self
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
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
