"""Optimizer, parameter declaration and initialization, per-user training
with its configuration, config settings (`setting`, `check_settings`),
and the in-place row softmax that every off-tape prediction ends in.
The finite-difference gradient checker is test code (`tests/reference.py`)."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from . import autograd as ag
from .autograd import Tensor


ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8  # added to the root of the second moment


class ContractViolation(ValueError):
    """Raised when an operation is called outside its contract."""


# a setting's annotation -> the exact types of the JSON values it accepts
# (a bool is never a number), and what an error asks for
_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
_WANTED = {"int": "an integer", "float": "a number", "str": "a string"}


def setting(default, *, ge=None, gt=None, le=None, choices=None):
    """A config dataclass field: its default and the range of values it
    accepts, which `check_settings` checks with the field's annotation."""
    return field(default=default, metadata={"setting": (ge, gt, le, choices)})


@functools.cache
def settings(cls: type) -> Mapping[str, tuple]:
    """Name -> `(annotation, ge, gt, le, choices)` of each setting of config
    dataclass `cls`, in field order; resolved once per class, read-only."""
    return MappingProxyType(
        {f.name: (f.type, *f.metadata["setting"]) for f in fields(cls) if "setting" in f.metadata}
    )


def check_settings(config) -> None:
    """Raise ContractViolation naming the first setting of `config` whose
    value is not of its declared JSON type or lies outside its range."""
    for name, declared in settings(type(config)).items():
        if not _holds(getattr(config, name), *declared):
            raise ContractViolation(f"configuration key {name!r} must be {_accepted(*declared)}")


def _holds(v, kind: str, ge, gt, le, choices) -> bool:
    if type(v) not in _TYPES[kind]:
        return False
    if kind == "float" and not abs(v) <= sys.float_info.max:
        return False  # NaN, an infinity or an integer beyond float64 is not a number
    in_range = (ge is None or v >= ge) and (gt is None or v > gt) and (le is None or v <= le)
    return in_range and (choices is None or v in choices)


def _accepted(kind: str, ge, gt, le, choices) -> str:
    text = _WANTED[kind]
    if choices is not None:
        return f"{text}, one of {', '.join(map(repr, choices))}"
    low = f"[{ge}" if ge is not None else f"({gt}" if gt is not None else None
    if low and le is not None:
        return f"{text} in {low}, {le}]"
    ops = [f"{op} {b}" for op, b in ((">=", ge), (">", gt), ("<=", le)) if b is not None]
    return " ".join([text, *ops])


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def embedding_init(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, size=(n, dim))


def zeros_init(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return np.zeros(shape)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """The softmax of each row of a 2-D array, written over it and
    returned: the row max subtracted, exp, then the row sum divided out."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


class ParamSpec(NamedTuple):
    """One declared parameter: `init(rng, *shape)` draws its initial value."""

    name: str
    shape: tuple[int, ...]
    init: Callable[..., np.ndarray]


def prefixed(prefix: str, specs: Sequence[ParamSpec]) -> list[ParamSpec]:
    return [ParamSpec(f"{prefix}/{name}", shape, init) for name, shape, init in specs]


def scope(params: Mapping[str, Tensor], prefix: str) -> dict[str, Tensor]:
    """The parameters `prefixed` put under `prefix`, by their own names:
    the same Tensors, not copies."""
    head = prefix + "/"
    return {k[len(head) :]: t for k, t in params.items() if k.startswith(head)}


def draw_params(specs: Sequence[ParamSpec], rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameters, drawn from `rng` in declaration order."""
    return {s.name: ag.parameter(s.init(rng, *s.shape)) for s in specs}


class Adam:
    """Adam with bias correction; one shared step counter for all params.

    Only the learning rate is set per optimizer; the moment decays and
    the denominator's epsilon are the module constants.

    The bias corrections are folded into two scalars per step, as at the
    end of section 2 of Kingma & Ba (2015): with r = sqrt(1 - b2^t),
    `lr_t = lr * r / (1 - b1^t)` and `eps_t = ADAM_EPS * r`, the update
    `lr_t * m / (sqrt(v) + eps_t)` equals `lr * m_hat / (sqrt(v_hat) +
    ADAM_EPS)` in exact arithmetic.  `eps_t` scales epsilon with the
    folded correction; a constant epsilon there would be another
    optimizer.  The moments keep the textbook's order of operations, so
    only the update's rounding differs from it.  Each element takes one
    sqrt and one divide, and every parameter is updated in place through
    one scratch array the size of the largest parameter, so a step
    allocates no parameter-sized temporary."""

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-4):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in self.params.items()}
        self._scratch = np.empty(max((p.value.size for p in self.params.values()), default=0))

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        root = math.sqrt(1.0 - b2**self.t)
        lr_t = self.lr * root / (1.0 - b1**self.t)
        eps_t = ADAM_EPS * root
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            s = self._scratch[: m.size].reshape(m.shape)
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.sqrt(v, out=s)
            s += eps_t
            np.divide(m, s, out=s)
            s *= lr_t
            p.value -= s

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


@dataclass(frozen=True)
class TrainConfig:
    """The per-user training protocol: sizes, Adam's learning rate, epochs
    and the seed of the initial draw and the user order.  Every trained
    method takes these fields; `model.ModelConfig` extends them."""

    dim: int = setting(256, ge=1)  # embedding size
    hdim: int = setting(256, ge=1)  # encoder hidden size
    lr: float = setting(1e-4, gt=0)
    epochs: int = setting(15, ge=0)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self)


_Batch = TypeVar("_Batch")


def train_per_user(
    params: Mapping[str, Tensor],
    config: TrainConfig,
    batches: Sequence[tuple[int, _Batch]],
    loss_fn: Callable[[int, _Batch], Tensor],
    user_ids: Sequence[str],
) -> list[float]:
    """One Adam step per (user, batch) pair, `config.epochs` times, in a
    fresh order drawn from `config.seed` each epoch; returns the per-epoch
    mean loss.

    A non-finite loss stops training with ContractViolation naming the
    epoch and the user, before backward/step can spread it into params;
    numpy's floating-point warnings are off while the loss is computed,
    so that check is the one report of a diverged forward pass.
    """
    if not batches:
        raise ContractViolation("no user has enough trips to train on")
    opt = Adam(params, lr=config.lr)
    order_rng = np.random.default_rng([config.seed, 1])
    curve = []
    for epoch in range(config.epochs):
        total = 0.0
        for pos in order_rng.permutation(len(batches)):
            user, batch = batches[pos]
            with np.errstate(all="ignore"):
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
