"""Recurrent encoders: a standard LSTM and a spatio-temporal variant.

The spatio-temporal cell augments the usual cell state with two extra
cell states fed by geographic context (cell embedding + scaled distance
row) and temporal context (time-slot embedding + scaled duration row).
Neither extra branch has its own output gate; the hidden state is

    h = o * tanh(W_h @ (c | c_s | c_t))

Gate weights are stored column-packed per branch (main: [i f o g],
side branches: [i f g]), the layout used by most LSTM implementations.
Packing lets one matrix product produce every pre-activation of a step.

`lstm_step` and `st_lstm_step` spell one step out on the autograd tape;
they are the reference the encoders are tested against.  The encoders
themselves are fused kernels: each sequence is one tape node whose
forward runs in plain numpy and whose backward is hand-written BPTT.
For its backward a kernel keeps, per step, the sigmoid gate outputs
(T, 2C + H), the tanh candidates (T, C), the cell states (T + 1, C)
and hidden states (T + 1, H) including the initial ones, and the output
squash tanh(c W_h) or tanh(c) (T, H), where C is H for the plain cell
and 3H for the stacked (c | c_s | c_t) cell, plus the recurrent weight
matrix in the fused column order and its input tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from .autograd import Tensor, concat, constant, index, matmul, mul, sigmoid, tanh
from . import autograd as ag
from .nn import ParamSpec, draw_params, glorot_uniform, zeros_init


class _Weights:
    """Encoder weights as dataclass fields, one parameter each."""

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}/{f.name}": getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_params(cls, params: Mapping[str, Tensor], prefix: str):
        return cls(**{f.name: params[f"{prefix}/{f.name}"] for f in fields(cls)})

    @property
    def hidden_dim(self) -> int:
        return self.U_h.value.shape[0]


@dataclass
class LSTMWeights(_Weights):
    """Packed weights of a plain LSTM: columns ordered [i f o g]."""

    W_x: Tensor  # in_dim x 4H
    U_h: Tensor  # H x 4H
    b: Tensor  # 4H


@dataclass
class STLSTMWeights(_Weights):
    """Packed weights of the spatio-temporal cell.

    Main branch columns are [i f o g]; the spatial and temporal branches
    have no output gate, so their columns are [i f g].  W_h maps the
    concatenated cell states (c | c_s | c_t) back to the hidden size.
    """

    W_x: Tensor  # dim x 4H, input = location embedding
    U_h: Tensor  # H x 4H
    b: Tensor  # 4H
    W_s: Tensor  # dim x 3H, input = geo-cell embedding
    V_s: Tensor  # |L| x 3H, input = scaled distance row
    U_s: Tensor  # H x 3H
    b_s: Tensor  # 3H
    W_t: Tensor  # dim x 3H, input = time-slot embedding
    V_t: Tensor  # |L| x 3H, input = scaled duration row
    U_t: Tensor  # H x 3H
    b_t: Tensor  # 3H
    W_h: Tensor  # 3H x H


def _packed(n_gates: int) -> Callable[..., np.ndarray]:
    """Initialiser of a column-packed gate matrix: one glorot draw per gate
    block, so bounds match the per-gate shapes."""

    def init(rng: np.random.Generator, fan_in: int, width: int) -> np.ndarray:
        blocks = [glorot_uniform(rng, fan_in, width // n_gates) for _ in range(n_gates)]
        return np.concatenate(blocks, axis=1)

    return init


def lstm_spec(in_dim: int, hidden: int) -> list[ParamSpec]:
    """`LSTMWeights` fields in draw order; the bias starts at zero."""
    return [
        ParamSpec("W_x", (in_dim, 4 * hidden), _packed(4)),
        ParamSpec("U_h", (hidden, 4 * hidden), _packed(4)),
        ParamSpec("b", (4 * hidden,), zeros_init),
    ]


def st_lstm_spec(dim: int, hidden: int, n_locations: int) -> list[ParamSpec]:
    """`STLSTMWeights` fields in draw order: main (W_x, U_h), spatial (W_s,
    V_s, U_s), temporal (W_t, V_t, U_t), then W_h; biases start at zero."""
    gates = 3 * hidden
    return [
        *lstm_spec(dim, hidden),
        ParamSpec("W_s", (dim, gates), _packed(3)),
        ParamSpec("V_s", (n_locations, gates), _packed(3)),
        ParamSpec("U_s", (hidden, gates), _packed(3)),
        ParamSpec("b_s", (gates,), zeros_init),
        ParamSpec("W_t", (dim, gates), _packed(3)),
        ParamSpec("V_t", (n_locations, gates), _packed(3)),
        ParamSpec("U_t", (hidden, gates), _packed(3)),
        ParamSpec("b_t", (gates,), zeros_init),
        ParamSpec("W_h", (gates, hidden), glorot_uniform),
    ]


def init_lstm(rng: np.random.Generator, in_dim: int, hidden: int) -> LSTMWeights:
    return LSTMWeights(**draw_params(lstm_spec(in_dim, hidden), rng))


def init_st_lstm(
    rng: np.random.Generator, dim: int, hidden: int, n_locations: int
) -> STLSTMWeights:
    return STLSTMWeights(**draw_params(st_lstm_spec(dim, hidden, n_locations), rng))


@dataclass
class STLSTMInput:
    """Per-step context of one encoded sequence, all length T.

    loc/geo/slot are (T, dim) embedding rows; dspace/dtime are (T, |L|)
    rows of the global interval tables for the visited locations.
    """

    loc: Tensor
    geo: Tensor
    slot: Tensor
    dspace: Tensor
    dtime: Tensor

    def __len__(self) -> int:
        return self.loc.value.shape[0]


def lstm_step(
    w: LSTMWeights, x: Tensor, h_prev: Tensor, c_prev: Tensor
) -> tuple[Tensor, Tensor]:
    """One straightforward step; the reference for the batched encoder."""
    hidden = w.hidden_dim
    z = matmul(x, w.W_x) + matmul(h_prev, w.U_h) + w.b
    gates = sigmoid(index(z, slice(0, 3 * hidden)))
    i = index(gates, slice(0, hidden))
    f = index(gates, slice(hidden, 2 * hidden))
    o = index(gates, slice(2 * hidden, 3 * hidden))
    g = tanh(index(z, slice(3 * hidden, 4 * hidden)))
    c = mul(f, c_prev) + mul(i, g)
    h = mul(o, tanh(c))
    return h, c


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
    """One spatio-temporal step written branch by branch (reference path)."""
    hidden = w.hidden_dim

    z = matmul(x, w.W_x) + matmul(h_prev, w.U_h) + w.b
    gates = sigmoid(index(z, slice(0, 3 * hidden)))
    i = index(gates, slice(0, hidden))
    f = index(gates, slice(hidden, 2 * hidden))
    o = index(gates, slice(2 * hidden, 3 * hidden))
    g = tanh(index(z, slice(3 * hidden, 4 * hidden)))
    c = mul(f, c_prev) + mul(i, g)

    def branch(Wb, Vb, Ub, bb, inp, drow, prev):
        zb = matmul(inp, Wb) + matmul(drow, Vb) + matmul(h_prev, Ub) + bb
        gb = sigmoid(index(zb, slice(0, 2 * hidden)))
        ib = index(gb, slice(0, hidden))
        fb = index(gb, slice(hidden, 2 * hidden))
        cb = tanh(index(zb, slice(2 * hidden, 3 * hidden)))
        return mul(fb, prev) + mul(ib, cb)

    c_s = branch(w.W_s, w.V_s, w.U_s, w.b_s, geo, dspace, cs_prev)
    c_t = branch(w.W_t, w.V_t, w.U_t, w.b_t, slot, dtime, ct_prev)

    h = mul(o, tanh(matmul(concat([c, c_s, c_t]), w.W_h)))
    return h, c, c_s, c_t


def _fused_order(hidden: int) -> np.ndarray:
    """Column gather from the packed branches (main [i f o g] | spatial
    [i f g] | temporal [i f g]) into [i i_s i_t f f_s f_t o | g g_s g_t].

    The first 7H columns take a sigmoid, the last 3H a tanh, and the
    i/f blocks line up with the stacked cell vector (c | c_s | c_t).
    """
    blocks = np.arange(10 * hidden).reshape(10, hidden)
    main, spat, temp = blocks[0:4], blocks[4:7], blocks[7:10]
    return np.concatenate(
        [main[0], spat[0], temp[0], main[1], spat[1], temp[1], main[2], main[3], spat[2], temp[2]]
    )


@dataclass
class _Trace:
    """What one forward pass of the recurrence saves for its backward.

    C is the cell width (H, or 3H for the stacked spatio-temporal cell).
    Row 0 of `cells`/`hidden` is the initial state, row j + 1 the state
    after step j.
    """

    gates: np.ndarray  # (T, 2C + H) sigmoid outputs [i | f | o]
    cand: np.ndarray  # (T, C) tanh candidates
    cells: np.ndarray  # (T + 1, C)
    hidden: np.ndarray  # (T + 1, H)
    squash: np.ndarray  # (T, H) tanh of the cell state (after W_h, if any)


def _recur(
    p: np.ndarray, u: np.ndarray, w_h: np.ndarray | None, h0: np.ndarray, c0: np.ndarray
) -> _Trace:
    """Run the recurrence over precomputed input projections `p` (T, 3C + H),
    columns [i | f | o | g].  `w_h` maps the cell state to the hidden
    size before the output squash; None means the identity."""
    steps, width, hidden = p.shape[0], c0.shape[0], h0.shape[0]
    n_sig = 2 * width + hidden
    tr = _Trace(
        gates=np.empty((steps, n_sig)),
        cand=np.empty((steps, width)),
        cells=np.empty((steps + 1, width)),
        hidden=np.empty((steps + 1, hidden)),
        squash=np.empty((steps, hidden)),
    )
    tr.cells[0] = c0
    tr.hidden[0] = h0
    # each step writes straight into the trace; the arithmetic is that of
    # sigmoid = 1 / (1 + exp(-z)), c = f * c_prev + i * g, h = o * squash
    z = np.empty(p.shape[1])
    mixed = np.empty(hidden)
    for j in range(steps):
        gates, cand, c, squash = tr.gates[j], tr.cand[j], tr.cells[j + 1], tr.squash[j]
        np.add(p[j], tr.hidden[j] @ u, out=z)
        np.negative(z[:n_sig], out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        np.tanh(z[n_sig:], out=cand)
        np.multiply(gates[width : 2 * width], tr.cells[j], out=c)
        c += gates[:width] * cand
        np.tanh(c if w_h is None else np.matmul(c, w_h, out=mixed), out=squash)
        np.multiply(gates[2 * width :], squash, out=tr.hidden[j + 1])
    return tr


def _sum_outer_last_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j outer(a[j], b[j]), added from the last step to the first as a
    per-step tape accumulates it.  einsum without `optimize` keeps the
    sum in the order of j and separate multiplies and adds (BLAS would
    regroup it), so the result matches that tape bit for bit here; tests
    hold it to 1e-12 of the step loop."""
    return np.einsum("ja,jb->ab", np.ascontiguousarray(a[::-1]), np.ascontiguousarray(b[::-1]))


def _bptt(
    tr: _Trace,
    u: np.ndarray,
    w_h: np.ndarray | None,
    d_states: np.ndarray,
    d_last_cell: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Backpropagate through `_recur`.

    `d_states` is the gradient of the (T, H) hidden states, `d_last_cell`
    that of the final cell state (None for zero).  Returns the gradients
    of (p, u, w_h, h0, c0).  Each expression repeats the one the per-step
    tape would evaluate, and the weight gradients accumulate from the
    last step back, so results agree with `lstm_step`/`st_lstm_step`
    loops to rounding.
    """
    steps, width = tr.cand.shape
    n_sig = tr.gates.shape[1]
    # derivative factors of every step at once (same values as per step)
    d_sigmoid = 1.0 - tr.gates
    d_cand = 1.0 - tr.cand * tr.cand
    d_squash = 1.0 - tr.squash * tr.squash
    d_p = np.empty((steps, u.shape[1]))
    d_mixes = np.empty((steps, tr.hidden.shape[1]))
    d_h = np.zeros(tr.hidden.shape[1])
    d_c_next = np.zeros(width) if d_last_cell is None else d_last_cell
    d_gates = np.empty(n_sig)
    for j in reversed(range(steps)):
        gates, d_z, d_mix = tr.gates[j], d_p[j], d_mixes[j]
        d_h = d_states[j] + d_h
        np.multiply(d_h, tr.squash[j], out=d_gates[2 * width :])
        np.multiply(d_h, gates[2 * width :], out=d_mix)
        d_mix *= d_squash[j]
        if w_h is None:
            d_c = d_mix + d_c_next
        else:
            d_c = d_mix @ w_h.T
            d_c += d_c_next
        np.multiply(d_c, tr.cells[j], out=d_gates[width : 2 * width])
        np.multiply(d_c, tr.cand[j], out=d_gates[:width])
        d_c_next = d_c * gates[width : 2 * width]
        np.multiply(d_gates, gates, out=d_z[:n_sig])
        d_z[:n_sig] *= d_sigmoid[j]
        np.multiply(d_c, gates[:width], out=d_z[n_sig:])
        d_z[n_sig:] *= d_cand[j]
        d_h = d_z @ u.T
    d_u = _sum_outer_last_first(tr.hidden[:-1], d_p)
    d_w_h = None if w_h is None else _sum_outer_last_first(tr.cells[1:], d_mixes)
    return d_p, d_u, d_w_h, d_h, d_c_next


def _feed(pairs) -> None:
    """Accumulate grad() into each tensor of (tensor, grad) pairs that
    takes gradients; grad is only evaluated for those."""
    for t, grad in pairs:
        if ag.needs_grad(t):
            t.accumulate(grad())


def st_lstm_encode(w: STLSTMWeights, inp: STLSTMInput) -> Tensor:
    """Run the sequence and return the (T, H) stack of hidden states.

    One tape node covers the whole sequence.  Input-side projections for
    all steps are batched up front; each step then costs one hidden-state
    product and elementwise work, with the three cell states carried as
    a single 3H vector.
    """
    steps = len(inp)
    hidden = w.hidden_dim
    if steps == 0:
        return constant(np.zeros((0, hidden)))

    loc, geo, slot, dspace, dtime = inp.loc, inp.geo, inp.slot, inp.dspace, inp.dtime
    order = _fused_order(hidden)
    p_main = loc.value @ w.W_x.value + w.b.value
    p_spat = geo.value @ w.W_s.value + dspace.value @ w.V_s.value + w.b_s.value
    p_temp = slot.value @ w.W_t.value + dtime.value @ w.V_t.value + w.b_t.value
    # np.take keeps rows C-contiguous (a[:, order] would not), which keeps
    # every BLAS call on the same layout as the per-step reference
    p = np.take(np.concatenate([p_main, p_spat, p_temp], axis=1), order, axis=1)
    u = np.take(np.concatenate([w.U_h.value, w.U_s.value, w.U_t.value], axis=1), order, axis=1)
    tr = _recur(p, u, w.W_h.value, np.zeros(hidden), np.zeros(3 * hidden))

    def backward(g):
        d_p, d_u, d_w_h, _, _ = _bptt(tr, u, w.W_h.value, g, None)
        back = np.argsort(order)  # packed column -> fused column
        main, spat, temp = back[: 4 * hidden], back[4 * hidden : 7 * hidden], back[7 * hidden :]
        d_main, d_spat, d_temp = (np.take(d_p, cols, axis=1) for cols in (main, spat, temp))
        _feed(
            [
                (w.W_h, lambda: d_w_h),
                (w.U_h, lambda: np.take(d_u, main, axis=1)),
                (w.U_s, lambda: np.take(d_u, spat, axis=1)),
                (w.U_t, lambda: np.take(d_u, temp, axis=1)),
                (w.W_x, lambda: loc.value.T @ d_main),
                (w.b, lambda: d_main.sum(axis=0)),
                (w.W_s, lambda: geo.value.T @ d_spat),
                (w.V_s, lambda: dspace.value.T @ d_spat),
                (w.b_s, lambda: d_spat.sum(axis=0)),
                (w.W_t, lambda: slot.value.T @ d_temp),
                (w.V_t, lambda: dtime.value.T @ d_temp),
                (w.b_t, lambda: d_temp.sum(axis=0)),
                (loc, lambda: d_main @ w.W_x.value.T),
                (geo, lambda: d_spat @ w.W_s.value.T),
                (dspace, lambda: d_spat @ w.V_s.value.T),
                (slot, lambda: d_temp @ w.W_t.value.T),
                (dtime, lambda: d_temp @ w.V_t.value.T),
            ]
        )

    inputs = (loc, geo, slot, dspace, dtime, *w.params("").values())
    return ag.fused(tr.hidden[1:], inputs, backward)


def lstm_encode(
    w: LSTMWeights,
    x: Tensor,
    h0: Tensor | None = None,
    c0: Tensor | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Run a (T, in_dim) input; return stacked states and final (h, c).

    One tape node covers the sequence; its value holds the T hidden
    states and, as row T, the final cell state, which the three returned
    tensors slice out.
    """
    steps = x.value.shape[0]
    hidden = w.hidden_dim
    h = h0 if h0 is not None else constant(np.zeros(hidden))
    c = c0 if c0 is not None else constant(np.zeros(hidden))
    if steps == 0:
        return constant(np.zeros((0, hidden))), h, c

    p = x.value @ w.W_x.value + w.b.value
    tr = _recur(p, w.U_h.value, None, h.value, c.value)

    def backward(g):
        d_p, d_u, _, d_h0, d_c0 = _bptt(tr, w.U_h.value, None, g[:steps], g[steps])
        _feed(
            [
                (w.U_h, lambda: d_u),
                (w.W_x, lambda: x.value.T @ d_p),
                (w.b, lambda: d_p.sum(axis=0)),
                (x, lambda: d_p @ w.W_x.value.T),
                (h, lambda: d_h0),
                (c, lambda: d_c0),
            ]
        )

    run = ag.fused(
        np.concatenate([tr.hidden[1:], tr.cells[-1:]]), (x, w.W_x, w.b, w.U_h, h, c), backward
    )
    return index(run, slice(0, steps)), index(run, steps - 1), index(run, steps)
