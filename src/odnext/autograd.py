"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

The tape holds only what one training step records: embedding gathers
(`take_rows`; its backward `scatter_rows`, which the decoder kernel
reuses, sums each gather into a zero table), `concat`, the kernels of the
encoders and the decoder, and `output_loss`, the output layer and its mean
cross-entropy, through which every head trains.  Each computes its value,
writes its backward by hand and hands both to `fused`, the one constructor
that puts a node on the tape: it records the inputs for which `needs_grad`
holds, so a node over constants alone is a constant.  There is no mode
that switches the tape off: an inference path stays off it because it
computes on constants or plain arrays.  The per-op functions the kernels
are checked against (`add` and the other elementwise ops, `matmul`,
indexing, reductions, softmax) and the finite-difference checker live in
`tests/reference.py` and build their nodes through `fused` too.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

class Tensor:
    """A node in the computation graph holding a float64 array."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        parents: tuple = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def accumulate(self, g: np.ndarray) -> None:
        """Add `g` into the gradient, summed over the axes along which
        numpy broadcast this tensor."""
        shape = self.value.shape
        if g.shape != shape:  # no sum over no axes: it would turn -0.0 into 0.0
            if g.ndim > len(shape):
                g = g.sum(axis=tuple(range(g.ndim - len(shape))))
            axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
            if axes:
                g = g.sum(axis=axes, keepdims=True)
        if self.grad is None:
            # a copy, never `g` itself: a node may hand one array to two parents
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.value)

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the graph."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.value))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def parameter(value) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(value, requires_grad=True)


def constant(value) -> Tensor:
    """A non-trainable leaf tensor."""
    return Tensor(value)


def needs_grad(t: Tensor) -> bool:
    """Whether gradients flow into `t`: a parameter or a taped result."""
    return t.requires_grad or bool(t._parents)


def fused(value, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """The one constructor of a taped node: `value`, computed outside the
    tape, over `inputs`.

    `backward(g)` receives the gradient of the output and accumulates
    into every input for which `needs_grad` holds.  Only those inputs go
    on the tape; with none, the result is a constant.
    """
    parents = tuple(t for t in inputs if needs_grad(t))
    if not parents:
        return Tensor(value)
    return Tensor(value, parents=parents, backward=backward)


def scatter_rows(a: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """Add `g`, the gradient of `a.value[idx]`, into `a.grad`: `g`'s rows
    are summed into a table of zeros in index order, which becomes the
    gradient or is added to the one `a` holds."""
    sums = np.zeros_like(a.value)
    np.add.at(sums, idx, g)
    if a.grad is None:
        a.grad = sums
    else:
        a.grad += sums


def take_rows(a: Tensor, idx) -> Tensor:
    """Row gather; its backward is `scatter_rows`."""
    idx = np.asarray(idx)
    return fused(a.value[idx], (a,), lambda g: scatter_rows(a, idx, g))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    def backward(g):
        offsets = np.cumsum([0] + [t.value.shape[axis] for t in tensors])
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if needs_grad(t):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate(g[tuple(sl)])

    return fused(np.concatenate([t.value for t in tensors], axis=axis), tensors, backward)


def output_loss(x: Tensor, w_out: Tensor, targets) -> Tensor:
    """The output layer and its loss as one node: the mean over rows of
    -log softmax(x @ w_out)[row, targets[row]].

    Equals scale(mean_all(take_per_row(log_softmax(x @ w_out), targets)),
    -1) operation for operation, the product's backward included, so losses
    and gradients match that chain.
    """
    xv, wv = x.value, w_out.value
    logits = xv @ wv
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_val = np.asarray(np.mean(shifted[rows, targets] - lse[:, 0])) * -1.0

    def backward(g):
        per_row = g * -1.0 / len(rows)
        grad = np.exp(shifted - lse) * -per_row
        grad[rows, targets] += per_row
        if needs_grad(x):
            x.accumulate(grad @ wv.T)
        if needs_grad(w_out):
            w_out.accumulate(xv.T @ grad)

    return fused(out_val, (x, w_out), backward)
