"""Reference code the program does not run: per-op autograd functions,
step-by-step recurrent cells, the decoder as the taped composition the
decoder kernel replaced, one-sequence-at-a-time versions of the row-axis
encodes, a finite-difference gradient checker, and the scalar time slot
of one timestamp.

The fused kernels of `odnext` (the encoders, the decoder, the mean
cross-entropy) are tested against compositions of these functions, every
gradient against `grad_check`, and `geo.timeslots` against `timeslot_of`.
The ops build their nodes through `ag.fused`, as the kernels do, so one
graph may mix both.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

import odnext.autograd as ag
from odnext.autograd import Tensor, concat, matmul, take_rows
from odnext.data import encoder_sequences
from odnext.geo import TIMESLOT_HOURS
from odnext.model import _causal_mask, attend_backward
from odnext.model import attend as attend_arrays
from odnext.nn import draw_params
from odnext.stlstm import LSTMWeights, STLSTMWeights, lstm_encode, lstm_spec, st_lstm_spec

# -- autograd ops -----------------------------------------------------------


def grad_enabled() -> bool:
    """Whether an op over a parameter would go on the tape."""
    return bool(ag.taped_inputs([ag.parameter(0.0)]))


def _unary(a: Tensor, out_val: np.ndarray, grad: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """A node over one input whose backward accumulates `grad(g)` into it."""
    return ag.fused(out_val, (a,), lambda g: a.accumulate(grad(g)))


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if ag.needs_grad(a):
            a.accumulate(g)
        if ag.needs_grad(b):
            b.accumulate(g)

    return ag.fused(a.value + b.value, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if ag.needs_grad(a):
            a.accumulate(g)
        if ag.needs_grad(b):
            b.accumulate(-g)

    return ag.fused(a.value - b.value, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if ag.needs_grad(a):
            a.accumulate(g * b.value)
        if ag.needs_grad(b):
            b.accumulate(g * a.value)

    return ag.fused(a.value * b.value, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    return _unary(a, a.value * c, lambda g: g * c)


def index(a: Tensor, key) -> Tensor:
    """Basic slicing / integer indexing (views become copies).

    Basic keys select each element at most once, so the backward adds
    straight into the selected part of `a.grad`.
    """

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[key] += g

    return ag.fused(np.array(a.value[key], copy=True), (a,), backward)


def take_per_row(a: Tensor, cols) -> Tensor:
    """out[i] = a[i, cols[i]] for a 2-D tensor."""
    cols = np.asarray(cols)
    rows = np.arange(a.value.shape[0])

    def grad(g):
        ga = np.zeros_like(a.value)
        ga[rows, cols] = g
        return ga

    return _unary(a, a.value[rows, cols], grad)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""

    def backward(g):
        for i, t in enumerate(tensors):
            if ag.needs_grad(t):
                t.accumulate(g[i])

    return ag.fused(np.stack([t.value for t in tensors]), tensors, backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.value.shape
    return _unary(a, a.value.reshape(shape), lambda g: g.reshape(orig))


def sum_axis(a: Tensor, axis: int) -> Tensor:
    return _unary(
        a, a.value.sum(axis=axis), lambda g: np.expand_dims(g, axis) * np.ones_like(a.value)
    )


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size
    return _unary(a, np.asarray(a.value.mean()), lambda g: np.full_like(a.value, g / n))


def sigmoid(a: Tensor) -> Tensor:
    out_val = 1.0 / (1.0 + np.exp(-a.value))
    return _unary(a, out_val, lambda g: g * out_val * (1.0 - out_val))


def tanh(a: Tensor) -> Tensor:
    out_val = np.tanh(a.value)
    return _unary(a, out_val, lambda g: g * (1.0 - out_val * out_val))


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    mask = a.value >= 0
    out_val = np.where(mask, a.value, slope * a.value)
    return _unary(a, out_val, lambda g: g * np.where(mask, 1.0, slope))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_val = shifted - lse
    sm = np.exp(out_val)
    return _unary(a, out_val, lambda g: g - sm * g.sum(axis=axis, keepdims=True))


# -- recurrent cells, one step at a time ------------------------------------


def init_lstm(rng: np.random.Generator, in_dim: int, hidden: int) -> LSTMWeights:
    return LSTMWeights(**draw_params(lstm_spec(in_dim, hidden), rng))


def init_st_lstm(
    rng: np.random.Generator, dim: int, hidden: int, n_locations: int
) -> STLSTMWeights:
    return STLSTMWeights(**draw_params(st_lstm_spec(dim, hidden, n_locations), rng))


def _gated_cell(z: Tensor, hidden: int, n_sig: int, c_prev: Tensor):
    """Sigmoid gates z[:n_sig] and the tanh candidate after them; returns
    (gates, c = f * c_prev + i * g)."""
    gates = sigmoid(index(z, slice(0, n_sig)))
    i = index(gates, slice(0, hidden))
    f = index(gates, slice(hidden, 2 * hidden))
    g = tanh(index(z, slice(n_sig, n_sig + hidden)))
    return gates, add(mul(f, c_prev), mul(i, g))


def lstm_step(
    w: LSTMWeights, x: Tensor, h_prev: Tensor, c_prev: Tensor
) -> tuple[Tensor, Tensor]:
    """One straightforward step; the reference for the fused encoder."""
    hidden = w.hidden_dim
    z = add(add(matmul(x, w.W_x), matmul(h_prev, w.U_h)), w.b)
    gates, c = _gated_cell(z, hidden, 3 * hidden, c_prev)
    o = index(gates, slice(2 * hidden, 3 * hidden))
    return mul(o, tanh(c)), c


def st_lstm_step(
    w: STLSTMWeights,
    x: Tensor,
    geo: Tensor,
    slot: Tensor,
    dspace: Tensor,
    dtime: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    cs_prev: Tensor,
    ct_prev: Tensor,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """One spatio-temporal step written branch by branch."""
    hidden = w.hidden_dim
    z = add(add(matmul(x, w.W_x), matmul(h_prev, w.U_h)), w.b)
    gates, c = _gated_cell(z, hidden, 3 * hidden, c_prev)
    o = index(gates, slice(2 * hidden, 3 * hidden))

    def branch(Wb, Vb, Ub, bb, inp, drow, prev):
        zb = add(add(add(matmul(inp, Wb), matmul(drow, Vb)), matmul(h_prev, Ub)), bb)
        return _gated_cell(zb, hidden, 2 * hidden, prev)[1]

    c_s = branch(w.W_s, w.V_s, w.U_s, w.b_s, geo, dspace, cs_prev)
    c_t = branch(w.W_t, w.V_t, w.U_t, w.b_t, slot, dtime, ct_prev)
    h = mul(o, tanh(matmul(concat([c, c_s, c_t]), w.W_h)))
    return h, c, c_s, c_t


# -- the decoder as a composition of taped nodes -------------------------------


def attend(
    queries: Tensor, states: Tensor, w_a: Tensor, mask: np.ndarray | None, slope: float
) -> tuple[Tensor, Tensor]:
    """`model.attend` and `model.attend_backward` as one tape node, the
    attention node the decoder kernel absorbed: (summary, alpha), alpha a
    constant."""
    q, s, w = queries.value, states.value, w_a.value
    summary, alpha, positive = attend_arrays(q, s, w, mask, slope, taped=True)

    def backward(g):
        grads = attend_backward(g, q, s, w, alpha, positive, slope)
        for t, d in zip((queries, states, w_a), grads):
            if ag.needs_grad(t):
                t.accumulate(d)

    return ag.fused(summary, (queries, states, w_a), backward), ag.constant(alpha)


def decode(model, states, o_emb, d_emb, user, users, mask) -> tuple[Tensor, Tensor | None]:
    """`Model._decode` as the taped composition it replaced: (logits,
    alpha) of the queries (user, o_emb[e], d_emb[e]) against `states`, the
    user row `user` of `users`, or of the user embedding when `users` is
    None."""
    c, w_out = model.config, model.params["out/W_loc"]
    v = c.variant
    if v == "encoder-only":
        return matmul(states, w_out), None
    table = model.params["emb/user"] if users is None else users

    def user_rows() -> Tensor:
        return take_rows(table, np.full(o_emb.shape[0], user, dtype=np.int64))

    cols = [o_emb, d_emb]
    if v not in ("user-add", "user-concat"):
        cols.insert(0, user_rows())
    queries = concat(cols, axis=1)
    summary, alpha = attend(queries, states, model.params["attn/W_A"], mask, c.leaky_slope)
    if v == "user-add":
        summary = add(summary, take_rows(table, user))
    elif v == "user-concat":
        summary = concat([summary, user_rows()], axis=1)
    return matmul(summary, w_out), alpha


# -- tape-free encodes, one sequence at a time --------------------------------


def cache_states(model, train) -> list[np.ndarray]:
    """`Model.build_cache` states as one `Model._encode` per user."""
    out = []
    with ag.no_grad():
        for trips in train.trips_by_user:
            seqs = encoder_sequences(trips, model.config.utc_offset_hours)
            states_o, states_d, _, _ = model._encode(seqs)
            out.append(np.concatenate([states_o.value, states_d.value], axis=0))
    return out


def final_states(od, train) -> list[tuple[np.ndarray, np.ndarray]]:
    """The od-lstm's final (h, c) per user, one `lstm_encode` per user."""
    out = []
    with ag.no_grad():
        for trips in train.trips_by_user:
            seqs = encoder_sequences(trips)
            _, h, c = lstm_encode(od.lstm, od._inputs(seqs.oseq, seqs.dseq))
            out.append((h.copy(), c.copy()))
    return out


def cold_history(model, trips) -> np.ndarray:
    """One history's `Model.predict_cold_cohort` rows with its own
    `Model._encode` of the history: encode trips[:-1] once, decode every
    query under the causal mask through the taped composition `decode`."""
    seqs = encoder_sequences(trips[:-1], model.config.utc_offset_hours, aligned=True)
    queries = np.array([t.origin_loc for t in trips[1:]], dtype=np.int64)
    mask = _causal_mask(len(queries)) if model.config.variant != "encoder-only" else None
    with ag.no_grad():
        states_o, states_d, _, d_emb = model._encode(seqs)
        logits, _ = decode(
            model,
            concat([states_o, states_d], axis=model._stack_axis),
            take_rows(model.params["emb/loc"], queries),
            d_emb,
            0,
            ag.constant(model.cold_user_vector()[None]),
            mask,
        )
        return ag.softmax(logits, axis=1).value


# -- time slots ---------------------------------------------------------------


def timeslot_of(ts: float, utc_offset_hours: int = 0) -> int:
    """Three-hour slot index in [0, 8) for an epoch-seconds timestamp."""
    if not math.isfinite(ts):
        raise ValueError(f"non-finite timestamp {ts}")
    hour = int(math.floor(ts / 3600.0) + utc_offset_hours) % 24
    return hour // TIMESLOT_HOURS


# -- finite differences -----------------------------------------------------


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
