"""Reference code the program does not run: per-op autograd functions,
step-by-step recurrent cells, the decoder as the taped composition the
decoder kernel replaced, the full causal mask that the attention's
oracles apply, one-sequence-at-a-time versions of the row-axis
encodes, a finite-difference gradient checker, the scalar time slot
of one timestamp, and Adam's textbook update loop.

The fused kernels of `odnext` (the encoders, the decoder, the output
layer and its loss) are tested against compositions of these
functions, every gradient against `grad_check`, `geo.timeslots` against
`timeslot_of`, and `nn.Adam` against `adam_loop`.
The ops build their nodes through `ag.fused`, as the kernels do, so one
graph may mix both.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

import odnext.autograd as ag
from odnext.autograd import Tensor, concat, take_rows
from odnext.data import encoder_sequences
from odnext.geo import TIMESLOT_HOURS
from odnext.model import _MASK_OFF, attend_backward
from odnext.model import attend as attend_arrays
from odnext.stlstm import lstm_encode

# -- autograd ops -----------------------------------------------------------


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for a 2-D `b` and a 1-D or 2-D `a` (a 1-D `a` as one row)."""
    av, bv = a.value, b.value

    def backward(g):
        if ag.needs_grad(a):
            a.accumulate(g @ bv.T)
        if ag.needs_grad(b):
            b.accumulate(av.reshape(-1, len(bv)).T @ g.reshape(-1, bv.shape[1]))

    return ag.fused(av @ bv, (a, b), backward)


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtraction along `axis`)."""
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_val = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_val).sum(axis=axis, keepdims=True)
        a.accumulate(out_val * (g - dot))

    return ag.fused(out_val, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_val = shifted - lse
    sm = np.exp(out_val)
    return _unary(a, out_val, lambda g: g - sm * g.sum(axis=axis, keepdims=True))


# -- recurrent cells, one step at a time ------------------------------------


def _gated_cell(z: Tensor, hidden: int, n_sig: int, c_prev: Tensor):
    """Sigmoid gates z[:n_sig] and the tanh candidate after them; returns
    (gates, c = f * c_prev + i * g)."""
    gates = sigmoid(index(z, slice(0, n_sig)))
    i = index(gates, slice(0, hidden))
    f = index(gates, slice(hidden, 2 * hidden))
    g = tanh(index(z, slice(n_sig, n_sig + hidden)))
    return gates, add(mul(f, c_prev), mul(i, g))


def lstm_step(
    w: Mapping[str, Tensor], x: Tensor, h_prev: Tensor, c_prev: Tensor
) -> tuple[Tensor, Tensor]:
    """One straightforward step over `lstm_spec`'s weights; the reference
    for the fused encoder."""
    hidden = w["U_h"].shape[0]
    z = add(add(matmul(x, w["W_x"]), matmul(h_prev, w["U_h"])), w["b"])
    gates, c = _gated_cell(z, hidden, 3 * hidden, c_prev)
    o = index(gates, slice(2 * hidden, 3 * hidden))
    return mul(o, tanh(c)), c


def st_lstm_step(
    w: Mapping[str, Tensor],
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
    """One spatio-temporal step over `st_lstm_spec`'s weights, written
    branch by branch."""
    hidden = w["U_h"].shape[0]
    z = add(add(matmul(x, w["W_x"]), matmul(h_prev, w["U_h"])), w["b"])
    gates, c = _gated_cell(z, hidden, 3 * hidden, c_prev)
    o = index(gates, slice(2 * hidden, 3 * hidden))

    def branch(k, inp, drow, prev):  # k: "s" spatial, "t" temporal
        zb = add(matmul(inp, w[f"W_{k}"]), matmul(drow, w[f"V_{k}"]))
        zb = add(add(zb, matmul(h_prev, w[f"U_{k}"])), w[f"b_{k}"])
        return _gated_cell(zb, hidden, 2 * hidden, prev)[1]

    c_s = branch("s", geo, dspace, cs_prev)
    c_t = branch("t", slot, dtime, ct_prev)
    h = mul(o, tanh(matmul(concat([c, c_s, c_t]), w["W_h"])))
    return h, c, c_s, c_t


# -- the decoder as a composition of taped nodes -------------------------------


def causal_mask(n_examples: int) -> np.ndarray:
    """The additive (2E, E, 1) mask of a causal `model.attend` over all of
    its states, in its state-major layout: example e sees the first e+1
    states of each encoder block.  The kernel masks only each query
    block's diagonal; the oracles mask everything with this."""
    upper = np.triu(np.ones((n_examples, n_examples), dtype=bool))  # j <= e
    return np.where(np.vstack([upper, upper]), 0.0, _MASK_OFF)[:, :, None]


def full_alpha(blocks: list, n_examples: int) -> np.ndarray:
    """The state-major (S, E, sd) alpha of `model.attend`'s `blocks` over
    all of its states: the blocks' alphas, and 0.0 wherever a causal
    block's queries do not look, which is what one block under
    `causal_mask` gives there."""
    if len(blocks) == 1:
        return blocks[0][1]
    sd = blocks[0][1].shape[2]
    out, a = np.zeros((2, n_examples, n_examples, sd)), 0
    for _, alpha, _ in blocks:  # block [a, b) over states 0..b-1 of each encoder block
        b = a + alpha.shape[1]
        out[:, :b, a:b] = alpha.reshape(2, b, b - a, sd)
        a = b
    return out.reshape(2 * n_examples, n_examples, sd)


def attend(
    queries: Tensor, states: Tensor, w_a: Tensor, causal: bool, slope: float
) -> tuple[Tensor, Tensor]:
    """`model.attend` and `model.attend_backward` as one tape node, the
    attention node the decoder kernel absorbed: (summary, alpha), alpha a
    constant (`full_alpha`)."""
    q, s, w = queries.value, states.value, w_a.value
    summary, blocks = attend_arrays(q, s, w, causal, slope, taped=True)

    def backward(g):
        grads = attend_backward(g, q, s, w, blocks, slope)
        for t, d in zip((queries, states, w_a), grads):
            if ag.needs_grad(t):
                t.accumulate(d)

    alpha = ag.constant(full_alpha(blocks, len(q)))
    return ag.fused(summary, (queries, states, w_a), backward), alpha


def decode(model, states, o_emb, d_emb, user, users, causal) -> tuple[Tensor, Tensor | None]:
    """`Model._decode` as the taped composition it replaced: (summary,
    alpha) of the queries (user, o_emb[e], d_emb[e]) against `states`,
    causal or not, the user row `user` of `users`, or of the user
    embedding when `users` is None.  The summary is the output layer's
    input; for encoder-only that is `states`, and alpha is None."""
    c = model.config
    v = c.variant
    if v == "encoder-only":
        return states, None
    table = model.params["emb/user"] if users is None else users

    def user_rows() -> Tensor:
        return take_rows(table, np.full(o_emb.shape[0], user, dtype=np.int64))

    cols = [o_emb, d_emb]
    if v not in ("user-add", "user-concat"):
        cols.insert(0, user_rows())
    queries = concat(cols, axis=1)
    summary, alpha = attend(queries, states, model.params["attn/W_A"], causal, c.leaky_slope)
    if v == "user-add":
        summary = add(summary, take_rows(table, user))
    elif v == "user-concat":
        summary = concat([summary, user_rows()], axis=1)
    return summary, alpha


# -- the row-axis encodes, one sequence at a time -----------------------------


def cache_states(model, train) -> list[np.ndarray]:
    """`Model.build_cache` states as one `Model._encode` per user."""
    out = []
    for trips in train.trips_by_user:
        seqs = encoder_sequences(trips, model.config.utc_offset_hours)
        states_o, states_d, _, _ = model._encode(seqs)
        out.append(np.concatenate([states_o.value, states_d.value], axis=0))
    return out


def final_states(od, train) -> list[tuple[np.ndarray, np.ndarray]]:
    """The od-lstm's final (h, c) per user, one `lstm_encode` per user."""
    out = []
    for trips in train.trips_by_user:
        seqs = encoder_sequences(trips)
        _, h, c = lstm_encode(od.lstm, od._inputs(seqs.oseq, seqs.dseq))
        out.append((h.copy(), c.copy()))
    return out


def cold_history(model, trips) -> np.ndarray:
    """One history's `Model.predict_cold_cohort` rows with its own
    `Model._encode` of the history: encode trips[:-1] once, decode every
    query causally through the taped composition `decode`."""
    seqs = encoder_sequences(trips[:-1], model.config.utc_offset_hours, aligned=True)
    queries = np.array([t.origin_loc for t in trips[1:]], dtype=np.int64)
    states_o, states_d, _, d_emb = model._encode(seqs)
    head, _ = decode(
        model,
        concat([states_o, states_d], axis=model._stack_axis),
        take_rows(model.params["emb/loc"], queries),
        d_emb,
        0,
        ag.constant(model.cold_user_vector()[None]),
        True,
    )
    return softmax(matmul(head, model.params["out/W_loc"]), axis=1).value


# -- time slots ---------------------------------------------------------------


def timeslot_of(ts: float, utc_offset_hours: int = 0) -> int:
    """Three-hour slot index in [0, 8) for an epoch-seconds timestamp."""
    if not math.isfinite(ts):
        raise ValueError(f"non-finite timestamp {ts}")
    hour = int(math.floor(ts / 3600.0) + utc_offset_hours) % 24
    return hour // TIMESLOT_HOURS


# -- optimizer ----------------------------------------------------------------


def adam_loop(values, grads, lr):
    """Adam as written in Kingma & Ba's Algorithm 1, one parameter at a
    time: `values` maps each name to its initial array, and `grads` gives
    per step a map of name -> gradient, where None skips that parameter
    but not the shared step counter.  Returns the values and the first
    and second moments after the last step, as new arrays.  The decays
    and epsilon are the paper's defaults written out, not read from
    `odnext.nn`, so a changed constant there fails the tests."""
    values = {k: x.copy() for k, x in values.items()}
    m = {k: np.zeros_like(x) for k, x in values.items()}
    v = {k: np.zeros_like(x) for k, x in values.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8  # Algorithm 1's defaults, pinned here
    for t, step in enumerate(grads, start=1):
        for name, g in step.items():
            if g is None:
                continue
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            values[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return values, m, v


# -- finite differences -----------------------------------------------------


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    h: float = 1e-5,
) -> tuple[float, str, int, float]:
    """(error, parameter, flat index, analytic gradient) of the coordinate
    where analytic and central-difference gradients differ most, relatively.

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

    worst = (0.0, "", 0, 0.0)
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
            worst = max(worst, (abs(a_flat[i] - numeric) / denom, name, i, float(a_flat[i])))
    for p in params.values():
        p.zero_grad()
    return worst
