"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

The tape holds only what one training step of the model records:
embedding gathers (`take_rows`), `concat`, `add`, `matmul`, `softmax`,
the mean cross-entropy, and the fused kernels (`fused`) of the encoders
and the attention layer, whose backwards are written by hand.  The
per-op functions the kernels are checked against (elementwise ops,
indexing, reductions) and the finite-difference checker live in the test
suite, in `tests/reference.py`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Graph construction can be switched off for inference / finite differences.
_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


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
        if self.grad is None:
            # a copy, never `g` itself: add hands one array to both parents
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _track(a: Tensor, *rest: Tensor) -> bool:
    if not _grad_enabled:
        return False
    if a.requires_grad or a._parents:
        return True
    return any(t.requires_grad or t._parents for t in rest)


def needs_grad(t: Tensor) -> bool:
    """Whether gradients flow into `t`: a parameter or a taped result."""
    return t.requires_grad or bool(t._parents)


def fused(value, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """One tape node for a kernel computed outside the tape.

    `backward(g)` receives the gradient of the output and accumulates
    into every input for which `needs_grad` holds.  Inputs that take no
    gradient are left off the tape.
    """
    if not _grad_enabled:
        return Tensor(value)
    parents = tuple(t for t in inputs if needs_grad(t))
    if not parents:
        return Tensor(value)
    return Tensor(value, parents=parents, backward=backward)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value + b.value
    if not _track(a, b):
        return Tensor(out_val)

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad or b._parents:
            b.accumulate(_unbroadcast(g, b.value.shape))

    return Tensor(out_val, parents=(a, b), backward=backward)


def matmul(a, b) -> Tensor:
    """Matrix product: numpy @ semantics for 1-D/2-D operands plus a
    batched n-D left operand against a 2-D right operand."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value @ b.value
    if not _track(a, b):
        return Tensor(out_val)
    av, bv = a.value, b.value

    def backward(g):
        if a.requires_grad or a._parents:
            if bv.ndim == 1:
                a.accumulate(g * bv if av.ndim == 1 else g[..., None] * bv)
            else:
                a.accumulate(g @ bv.T)
        if b.requires_grad or b._parents:
            if av.ndim == 1:
                b.accumulate(g * av if bv.ndim == 1 else np.outer(av, g))
            elif av.ndim == 2:
                b.accumulate(av.T @ g)
            else:
                # batched: contract every axis but the last
                axes = tuple(range(av.ndim - 1))
                b.accumulate(np.tensordot(av, g, axes=(axes, axes)))

    return Tensor(out_val, parents=(a, b), backward=backward)


def take_rows(a: Tensor, idx) -> Tensor:
    """Row gather; gradients accumulate additively into repeated rows.

    The backward adds into `a.grad` in place.  Once `a.grad` holds an
    earlier gradient, each gathered row's contributions are summed first,
    in index order, and then added, so the result equals adding a
    separate zeros + np.add.at buffer, bit for bit.
    """
    idx = np.asarray(idx)
    out_val = a.value[idx]
    if not _track(a):
        return Tensor(out_val)

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
            np.add.at(a.grad, idx, g)
            return
        rows, slot = np.unique(idx, return_inverse=True)
        sums = np.zeros((rows.size,) + a.value.shape[1:])
        np.add.at(sums, slot.reshape(idx.shape), g)
        a.grad[rows] += sums

    return Tensor(out_val, parents=(a,), backward=backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    if not _track(*tensors):
        return Tensor(out_val)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._parents:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate(g[tuple(sl)])

    return Tensor(out_val, parents=tuple(tensors), backward=backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction along `axis`)."""
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_val = e / e.sum(axis=axis, keepdims=True)
    if not _track(a):
        return Tensor(out_val)

    def backward(g):
        dot = (g * out_val).sum(axis=axis, keepdims=True)
        a.accumulate(out_val * (g - dot))

    return Tensor(out_val, parents=(a,), backward=backward)


def mean_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[row, targets[row]], as one node.

    Equals scale(mean_all(take_per_row(log_softmax(logits), targets)), -1)
    operation for operation, so losses and gradients match that chain.
    """
    targets = np.asarray(targets)
    rows = np.arange(logits.value.shape[0])
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_val = np.asarray(np.mean(shifted[rows, targets] - lse[:, 0])) * -1.0
    if not _track(logits):
        return Tensor(out_val)

    def backward(g):
        per_row = g * -1.0 / len(rows)
        grad = np.exp(shifted - lse) * -per_row
        grad[rows, targets] += per_row
        logits.accumulate(grad)

    return Tensor(out_val, parents=(logits,), backward=backward)
