"""Reverse-mode automatic differentiation over dense float64 arrays.

The model records six ops per batch at most, each a fixed chain of numpy
work whose closure is a hand-written vector-Jacobian product:
selector.selection_logits and the selection tail in selector.select,
encoder.encode_prefixes, the two item gathers (Tensor.gather) and
trainer.loss_head. An op's output keeps references to its inputs and its
closure, which takes the output gradient and routes it back to them. No
closure refers to its own output, so a graph holds no reference cycle.
backward() on a scalar output walks the recorded trace once in reverse
topological order, accumulating into .grad on every tensor that requires it.
Gradients add up across fan-out, so a tensor used twice contributes twice.

The walk consumes the graph and frees it as it goes. When a node's turn
comes, every consumer has already run, so its gradient is complete; its
closure runs, and then the node drops its closure, its inputs and, unless it
is the root, its .grad. A recorded forward supports one backward(), after
which only the leaves and the root hold a gradient.

An op records only when one of its inputs requires a gradient. Otherwise
its output keeps neither inputs nor closure and is freed with its last
reference, so a forward over leaves that need none records nothing.

An op is written with four calls:
  * Tensor.record(data, inputs, backward) returns the output, which keeps
    inputs and the closure backward(g) only while recording.
  * Tensor.accum(g), in the closure, hands an input a gradient array made
    for that call alone. It becomes the input's .grad as it is when the
    input has none yet, and later contributions add into it in place, so a
    closure never hands on an array it shares or cannot write.
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
    place; a hook copies what it keeps. A finite-difference checker uses it
    to skip coordinates whose perturbation lands on or crosses a kink, where
    there is no two-sided derivative to agree with.
accum and accum_rows do nothing for an input that requires no gradient, so a
closure hands every input its share without asking. A block closure keeps
only the arrays its product reads, and hands each input the gradient, in the
order, that the chain of elementwise ops it replaced would have: floating
point addition is not associative, so three or more contributions to one
array keep the bits only in that order.

Conventions:
  * storage is always float64; inputs are coerced on construction
  * kinked activations take the left derivative at the kink
    (relu'(0) = 0, abs'(0) = 0, and the selector's leaky relu has slope 0.1
    at 0)
  * a norm's gradient at a zero row is taken as 0 (its denominator is
    floored at 1e-300)
"""

from __future__ import annotations

import numpy as np

from .errors import GradientError, ShapeError

__all__ = ["Tensor", "kink"]

# called by kink with every kinked pre-activation array
kink_hook = None


def kink(pre: np.ndarray) -> None:
    """Report a kinked pre-activation to kink_hook, when it is set."""
    if kink_hook is not None:
        kink_hook(pre)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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
