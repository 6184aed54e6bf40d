"""Optimizer, parameter initialization, loss, and gradient checking."""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class ContractViolation(ValueError):
    """Raised when an operation is called outside its contract."""


def linear(W: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """y[j] = sum_k x[k] * W[k, j] (+ b[j])."""
    if x.value.shape[-1] != W.value.shape[0]:
        raise ContractViolation(
            f"linear: input size {x.value.shape} incompatible with W {W.value.shape}"
        )
    y = ag.matmul(x, W)
    return y if b is None else ag.add(y, b)


def embedding_lookup(table: Tensor, idx: int) -> Tensor:
    """Return row `idx` of an embedding table; grads touch only that row."""
    n = table.value.shape[0]
    if not 0 <= idx < n:
        raise ContractViolation(f"embedding index {idx} out of range [0, {n})")
    return ag.take_rows(table, idx)


def cross_entropy(probs: Tensor, target: int, eps_clip: float = 1e-12) -> Tensor:
    """-log(probs[target] + eps_clip) for a probability vector."""
    p = probs.value
    if abs(p.sum() - 1.0) > 1e-6 or (p < -1e-12).any():
        raise ContractViolation("cross_entropy expects a probability distribution")
    if not 0 <= target < p.shape[0]:
        raise ContractViolation(f"target {target} out of range [0, {p.shape[0]})")
    return -ag.log(ag.add(probs[target], eps_clip))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def embedding_init(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, size=(n, dim))


def zeros_init(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return np.zeros(shape)


class ParamSpec(NamedTuple):
    """One declared parameter: `init(rng, *shape)` draws its initial value."""

    name: str
    shape: tuple[int, ...]
    init: Callable[..., np.ndarray]


def prefixed(prefix: str, specs: Sequence[ParamSpec]) -> list[ParamSpec]:
    return [s._replace(name=f"{prefix}/{s.name}") for s in specs]


def draw_params(specs: Sequence[ParamSpec], rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameters, drawn from `rng` in declaration order."""
    return {s.name: ag.parameter(s.init(rng, *s.shape)) for s in specs}


def wrap_params(specs: Sequence[ParamSpec], values: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    """Parameters over the given arrays, without a copy or a draw; names,
    order and shapes must be those of the declaration."""
    got = [(name, np.shape(a)) for name, a in values.items()]
    want = [(s.name, s.shape) for s in specs]
    if got != want:
        wrong = sorted({name for name, _ in set(got) ^ set(want)}) or "order"
        raise ContractViolation(f"parameters missing, extra, misshapen or out of order: {wrong}")
    return {name: ag.parameter(a) for name, a in values.items()}


class Adam:
    """Adam with bias correction; one shared step counter for all params."""

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


_Batch = TypeVar("_Batch")


def train_per_user(
    params: Mapping[str, Tensor],
    lr: float,
    seed: int,
    epochs: int,
    batches: Sequence[tuple[int, _Batch]],
    loss_fn: Callable[[int, _Batch], Tensor],
    user_ids: Sequence[str],
) -> list[float]:
    """One Adam step per (user, batch) pair, in a fresh seeded order each
    epoch; returns the per-epoch mean loss.

    A non-finite loss stops training with ContractViolation naming the
    epoch and the user, before backward/step can spread it into params.
    """
    if not batches:
        raise ContractViolation("no user has enough trips to train on")
    opt = Adam(params, lr=lr)
    order_rng = np.random.default_rng([seed, 1])
    curve = []
    for epoch in range(epochs):
        total = 0.0
        for pos in order_rng.permutation(len(batches)):
            user, batch = batches[pos]
            loss = loss_fn(user, batch)
            value = loss.item()
            if not math.isfinite(value):
                raise ContractViolation(
                    f"training diverged: loss {value} at epoch {epoch + 1}, "
                    f"user {user_ids[user]!r} (index {user})"
                )
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += value
        curve.append(total / len(batches))
    return curve


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` must rebuild the graph on every call (it is re-run with
    perturbed parameter values).  The relative error per coordinate uses
    the denominator max(|analytic|, |numeric|, 1e-8).
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {
        k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
        for k, p in params.items()
    }

    worst = 0.0
    with ag.no_grad():
        for name, p in params.items():
            flat = p.value.ravel()
            a_flat = analytic[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = float(loss_fn().value)
                flat[i] = orig - h
                f_minus = float(loss_fn().value)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
                worst = max(worst, abs(a_flat[i] - numeric) / denom)
    for p in params.values():
        p.zero_grad()
    return worst
