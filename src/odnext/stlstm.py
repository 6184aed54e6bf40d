"""Recurrent encoders: a standard LSTM and a spatio-temporal variant.

The spatio-temporal cell augments the usual cell state with two extra
cell states fed by geographic context (cell embedding + scaled distance
row) and temporal context (time-slot embedding + scaled duration row).
Neither extra branch has its own output gate; the hidden state is

    h = o * tanh(W_h @ (c | c_s | c_t))

Gate weights are stored column-packed per branch (main: [i f o g],
side branches: [i f g]), the layout used by most LSTM implementations.
Packing lets one matrix product produce every pre-activation of a step.

Both encoders wrap one fused kernel, `_encode`: a plain LSTM is its
single-branch case.  A sequence is one tape node whose forward runs in
plain numpy (`_recur`, which keeps what `_Trace` lists) and whose
backward is hand-written BPTT (`_bptt`).  Gradients flow into the inputs
and the weights, never into an initial state.  The step cells the kernel
is tested against, `lstm_step` and `st_lstm_step`, spell one step out on
the autograd tape and live in the test suite (`tests/reference.py`).

Every input may also carry a leading row axis: B equal-length sequences
that share one encoder's weights run through the same `_encode` as one
recurrence, off the tape and without a backward trace.  Every row gets
the bits of its own one-sequence encode, because each row keeps its own
products: one vector-matrix product per row and step
(`np.matmul(h[:, None, :], u)`) and one projection product per (T, in)
slice.  A stacked (B, H) or (B*T, in) GEMM would regroup the sums.
Callers take at most MAX_ROWS sequences per encode
(`equal_length_chunks`); training keeps one sequence per call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .autograd import Tensor, constant
from . import autograd as ag
from .nn import ContractViolation, ParamSpec, glorot_uniform, zeros_init

MAX_ROWS = 16  # sequences per row-axis encode


class _Weights:
    """Encoder weights as dataclass fields, one parameter each."""

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


@dataclass
class STLSTMInput:
    """Per-step context of one encoded sequence, all length T.

    loc/geo/slot are (T, dim) embedding rows; dspace/dtime are (T, |L|)
    rows of the global interval tables for the visited locations.  With a
    leading (B,) axis on every field, B equal-length sequences encode
    together, off the tape.
    """

    loc: Tensor
    geo: Tensor
    slot: Tensor
    dspace: Tensor
    dtime: Tensor

    def __len__(self) -> int:
        return self.loc.value.shape[0]


@dataclass
class _Trace:
    """What one forward pass of the recurrence saves for its backward.

    C is the cell width (H, or 3H for the stacked spatio-temporal cell).
    Row 0 of `cells`/`hidden` is the initial state, row j + 1 the state
    after step j.  With a row axis every array has a B axis after the
    step axis.
    """

    gates: np.ndarray  # (T, 2C + H) sigmoid outputs [i | f | o]
    cand: np.ndarray  # (T, C) tanh candidates
    cells: np.ndarray  # (T + 1, C)
    hidden: np.ndarray  # (T + 1, H)
    squash: np.ndarray  # (T, H) tanh of the cell state (after W_h, if any)


def _recur(
    p: np.ndarray,
    u: np.ndarray,
    w_h: np.ndarray | None,
    h0: np.ndarray,
    c0: np.ndarray,
) -> _Trace:
    """Run the recurrence over precomputed input projections `p` (T, 3C + H),
    columns [i | f | o | g].  `w_h` maps the cell state to the hidden
    size before the output squash; None means the identity.

    With a row axis, p is (T, B, 3C + H) and h0/c0 are (B, H)/(B, C): B
    sequences of T steps that share the weights run as one recurrence.
    Each row's products are vector-matrix products of their own, so a
    row gets the bits it would get alone (a (B, H) GEMM would not).

    Row-axis passes take no backward, so only `hidden` covers every step;
    the other arrays hold one step, and `cells` the current cell state.
    """
    steps, width = p.shape[0], c0.shape[-1]
    rows, hidden = h0.shape[:-1], h0.shape[-1]
    n_sig = 2 * width + hidden
    keep = not rows
    kept = steps if keep else 1
    tr = _Trace(
        gates=np.empty((kept, *rows, n_sig)),
        cand=np.empty((kept, *rows, width)),
        cells=np.empty((steps + 1 if keep else 1, *rows, width)),
        hidden=np.empty((steps + 1, *rows, hidden)),
        squash=np.empty((kept, *rows, hidden)),
    )
    tr.cells[0] = c0
    tr.hidden[0] = h0
    # each step writes straight into the trace; the arithmetic is that of
    # sigmoid = 1 / (1 + exp(-z)), c = f * c_prev + i * g, h = o * squash
    z = np.empty(p.shape[1:])
    mixed = np.empty((*rows, hidden))
    for j in range(steps):
        k = j if keep else 0
        gates, cand, squash = tr.gates[k], tr.cand[k], tr.squash[k]
        c_prev, c = tr.cells[k], tr.cells[k + 1 if keep else 0]
        np.matmul(tr.hidden[j][..., None, :], u, out=z[..., None, :])
        z += p[j]
        np.negative(z[..., :n_sig], out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        np.tanh(z[..., n_sig:], out=cand)
        np.multiply(gates[..., width : 2 * width], c_prev, out=c)
        c += gates[..., :width] * cand
        if w_h is not None:
            np.matmul(c[..., None, :], w_h, out=mixed[..., None, :])
            c = mixed
        np.tanh(c, out=squash)
        np.multiply(gates[..., 2 * width :], squash, out=tr.hidden[j + 1])
    return tr


def _sum_outer_last_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j outer(a[j], b[j]), added from the last step to the first as a
    per-step tape accumulates it.  einsum without `optimize` keeps the
    sum in the order of j and separate multiplies and adds (BLAS would
    regroup it), so the result matches that tape bit for bit here; tests
    hold it to 1e-12 of the step loop."""
    return np.einsum("ja,jb->ab", np.ascontiguousarray(a[::-1]), np.ascontiguousarray(b[::-1]))


def _bptt(
    tr: _Trace, u: np.ndarray, w_h: np.ndarray | None, d_states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backpropagate through `_recur`.

    `d_states` is the gradient of the (T, H) hidden states; no gradient
    reaches the final cell state.  Returns the gradients of (p, u, w_h).
    Each expression repeats the one the per-step tape would evaluate, and
    the weight gradients accumulate from the last step back, so results
    agree with loops of the reference step cells to rounding.
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
    d_c_next = np.zeros(width)
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
    return d_p, d_u, d_w_h


# A gate branch: the (input, weight) pairs whose products sum to its input
# projection, its recurrent block and its bias.
_Branch = tuple[list[tuple[Tensor, Tensor]], Tensor, Tensor]


def _blocks(a: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The H-column blocks of `a` as views; np.hsplit takes 3x as long."""
    return [a[..., k : k + hidden] for k in range(0, a.shape[-1], hidden)]


def _regroup(packed: list[np.ndarray], hidden: int) -> np.ndarray:
    """Join per-branch packed columns (main [i f o g], sides [i f g]) by
    gate: every i, every f, the main o, every g, i.e. [i i_s i_t f f_s f_t
    o | g g_s g_t].  The sigmoids come first and the i/f blocks line up
    with the stacked cells (c | c_s | c_t).  Block copies keep rows
    C-contiguous, as the per-step reference's BLAS calls see them."""
    if len(packed) == 1:
        return packed[0]
    blocks = [_blocks(a, hidden) for a in packed]
    i, f, g = ([bs[k] for bs in blocks] for k in (0, 1, -1))
    return np.concatenate([*i, *f, blocks[0][2], *g], axis=-1)


def _ungroup(fused: np.ndarray, hidden: int, n: int) -> list[np.ndarray]:
    """Inverse of `_regroup` for n branches: the fused columns back per
    branch, each in its packed order."""
    if n == 1:
        return [fused]
    blocks = _blocks(fused, hidden)
    i, f, o, g = blocks[:n], blocks[n : 2 * n], blocks[2 * n], blocks[2 * n + 1 :]
    main = np.concatenate([i[0], f[0], o, g[0]], axis=1)
    return [main, *(np.concatenate([i[b], f[b], g[b]], axis=1) for b in range(1, n))]


def _project(branches: list[_Branch], hidden: int) -> np.ndarray:
    """Every branch's input projection, fused by gate (`_regroup`): a
    (..., T, 3C + H) array for (..., T, in) inputs."""
    return _regroup(
        [reduce(np.add, (x.value @ w.value for x, w in fs)) + b.value for fs, _, b in branches],
        hidden,
    )


def _encode(
    branches: list[_Branch], w_h: Tensor | None, h0: np.ndarray, c0: np.ndarray
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """The recurrence over gate branches, main branch first; return the
    (T, H) hidden states as one tape node and the final (h, c).

    Input projections are built up front; a step then costs one product
    with the hidden state and elementwise work on the branches' stacked
    cells, which `w_h` (None: the identity) maps to the hidden size.

    With (B, T, in) inputs and (B, H)/(B, C) initial states, B sequences
    run as one recurrence: the states are (B, T, H) and the final state
    (B, H)/(B, C).  Such an encode keeps no backward trace, so it refuses
    the tape.
    """
    hidden = h0.shape[-1]
    # every input and weight goes on the tape; the inputs come first, as
    # their order fixes the order of the backward pass
    inputs = [x for feeds, _, _ in branches for x, _ in feeds]
    inputs += [t for feeds, rec, b in branches for t in (*(w for _, w in feeds), rec, b)]
    inputs += [] if w_h is None else [w_h]
    if h0.ndim > 1 and ag.taped_inputs(inputs):
        raise ContractViolation("a row-axis encode takes no gradient; run it under no_grad")
    p = _project(branches, hidden)
    if p.shape[-2] == 0:
        return constant(np.zeros((*p.shape[:-1], hidden))), h0, c0
    u = _regroup([rec.value for _, rec, _ in branches], hidden)
    w_h_value = None if w_h is None else w_h.value
    tr = _recur(p.swapaxes(0, -2), u, w_h_value, h0, c0)

    def backward(g):
        d_p, d_u, d_w_h = _bptt(tr, u, w_h_value, g)
        n = len(branches)
        for (feeds, rec, b), d_br, d_rec in zip(
            branches, _ungroup(d_p, hidden, n), _ungroup(d_u, hidden, n)
        ):
            for x, w in feeds:
                if ag.needs_grad(w):
                    w.accumulate(x.value.T @ d_br)
                if ag.needs_grad(x):
                    x.accumulate(d_br @ w.value.T)
            if ag.needs_grad(rec):
                rec.accumulate(d_rec)
            if ag.needs_grad(b):
                b.accumulate(d_br.sum(axis=0))
        if w_h is not None and ag.needs_grad(w_h):
            w_h.accumulate(d_w_h)

    states = tr.hidden[1:].swapaxes(0, -2)
    return ag.fused(states, inputs, backward), tr.hidden[-1], tr.cells[-1]


def equal_length_chunks(lengths: Sequence[int]) -> list[list[int]]:
    """Indices of `lengths` grouped by length, in first-seen order, in runs
    of at most MAX_ROWS: the sequences that one row-axis encode takes."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    return [g[k : k + MAX_ROWS] for g in groups.values() for k in range(0, len(g), MAX_ROWS)]


def st_lstm_encode(w: STLSTMWeights, inp: STLSTMInput) -> Tensor:
    """Run the sequence (or B sequences, see `STLSTMInput`) from a zero
    state and return the (T, H) stack of hidden states: `_encode` over the
    main, spatial and temporal branches."""
    hidden = w.hidden_dim
    rows = inp.loc.value.shape[:-2]
    branches = [
        ([(inp.loc, w.W_x)], w.U_h, w.b),
        ([(inp.geo, w.W_s), (inp.dspace, w.V_s)], w.U_s, w.b_s),
        ([(inp.slot, w.W_t), (inp.dtime, w.V_t)], w.U_t, w.b_t),
    ]
    return _encode(branches, w.W_h, np.zeros((*rows, hidden)), np.zeros((*rows, 3 * hidden)))[0]


def lstm_encode(
    w: LSTMWeights, x: Tensor, h0: np.ndarray | None = None, c0: np.ndarray | None = None
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Run a (T, in_dim) input from the state (h0, c0), zeros by default,
    as `_encode`'s one-branch case; return the (T, H) stacked states and
    the final (h, c) as arrays.

    Gradients flow from the stacked states into `x` and the weights.  The
    final state is a view of the forward trace, so a caller that keeps it
    should copy it.  A (B, T, in_dim) input runs B sequences together, off
    the tape, from (B, H) states.
    """
    rows = x.value.shape[:-2]
    h = np.zeros((*rows, w.hidden_dim)) if h0 is None else h0
    c = np.zeros((*rows, w.hidden_dim)) if c0 is None else c0
    return _encode([([(x, w.W_x)], w.U_h, w.b)], None, h, c)
