"""Next-destination recommendation model.

The full model runs two spatio-temporal LSTM encoders over a user's
trip history (one over origins o_2..o_n, one over destinations
d_1..d_(n-1)) and decodes with an attention layer whose query is the
user embedding, the current origin, and the previous destination.
Attention weights are normalized per hidden dimension, so each output
coordinate mixes the encoder states with its own set of weights.  The
attended summary maps through a linear layer and a softmax into a
distribution over candidate locations.

Training treats one user as a minibatch: the mean cross-entropy over
the user's examples backpropagates through decoder and encoders, and
the optimizer takes one step per user.  After training the encoder
states are frozen into an EncodedCache, with their projection through
the attention's state block (the keys, which depend on no query);
prediction only re-runs the decoder against the cached states and keys.
One decoder serves training, cached prediction and cold start:
`Model._decode_forward` computes it on plain arrays (query rows,
attention, the user-add or user-concat step) up to the summary.
Training wraps it in one tape node with a hand-written backward
(`Model._decode`); every prediction calls it through `Model._probs`,
and a cold user's vector is the mean user embedding.  Encoder-only's
aligned state pairs stand in for the summary.  Both meet one output
layer: `autograd.output_loss` in training, `_probs` in prediction.

One encode path (`Model._encode`) serves training and inference.  For
inference every history goes through `stlstm.encode_by_length`
(`Model._encode_all`): the fields of up to `stlstm.MAX_ROWS`
equal-length histories are stacked along a leading row axis, which each
encoder runs as one recurrence, with the same bits as one encode per
history.  Such rows gather constants and encode into constants, so no
inference path builds a tape node: that follows from what it computes
on, not from a mode.  A cold user's history is encoded once, and all of
its queries are decoded in one batch by one causal `attend`, because
encoder states depend only on the prefix.  A causal `attend` computes
only what each query can see, one block of queries at a time.

Ablation variants share the training protocol but remove or replace
pieces; see VARIANTS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Corpus, IntervalTables, Sequences, Trip, Vocab, encoder_sequences
from .geo import N_TIMESLOTS
from .nn import (
    ContractViolation,
    ParamSpec,
    TrainConfig,
    draw_params,
    embedding_init,
    glorot_uniform,
    prefixed,
    scope,
    setting,
    softmax_rows,
    train_per_user,
)
from .stlstm import (
    STLSTMInput,
    encode_by_length,
    gather_input,
    lstm_encode,
    lstm_spec,
    st_lstm_encode,
    st_lstm_spec,
)

VARIANTS = (
    "stod-ppa",  # full model
    "od-ppa",  # plain LSTM encoders, no spatio-temporal cell states
    "encoder-only",  # aligned encoder state pair straight into the output layer
    "decoder-only",  # attention over raw location embeddings, no encoders
    "user-add",  # unpersonalized attention, user vector added to the summary
    "user-concat",  # unpersonalized attention, user vector concatenated
)

ATTENTION_CONTEXTS = ("all", "causal")

ATTEND_BLOCK = 10  # queries per block of a causal `attend` over more queries
_MASK_OFF = -1e30  # additive mask value; exp underflows to exactly zero
# the additive mask of a causal block's diagonal: state i from query j < i
_TRIANGLE = np.where(np.tri(ATTEND_BLOCK, k=-1, dtype=bool), _MASK_OFF, 0.0)[:, :, None]
_UINT64_OF = {np.dtype(o + "i8"): np.dtype(o + "u8") for o in "<>"}  # same byte order


class ColdStartError(ContractViolation):
    """Raised when a prediction needs history that does not exist."""


@dataclass(frozen=True)
class ModelConfig(TrainConfig):
    """The training protocol's fields, then the model's own; defaults
    follow the reference training profile."""

    variant: str = setting("stod-ppa", choices=VARIANTS)
    # "causal" restricts training attention
    attention_context: str = setting("all", choices=ATTENTION_CONTEXTS)
    geohash_precision: int = setting(5, ge=1, le=12)
    utc_offset_hours: int = setting(0, ge=-12, le=14)  # the range of civil time zones
    leaky_slope: float = setting(0.01, ge=0)

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def state_dim(self) -> int:
        """Width of one encoder state (a raw embedding for decoder-only)."""
        return self.dim if self.variant == "decoder-only" else self.hdim


class UserRows:
    """One cached field of every user, kept flat as the checkpoint stores
    it: `flat` holds the users' rows one after another, and `rows[u]` is
    user u's run of them, a view taken on access (no copy).  Read-only as
    a sequence: `len`, iteration in user order, and an index as a list
    takes it (-1 is the last user)."""

    __slots__ = ("flat", "_starts", "_ends")

    def __init__(self, flat: np.ndarray, bounds: list[int]):
        self.flat = flat
        self._starts, self._ends = bounds[:-1], bounds[1:]

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, user) -> np.ndarray:
        return self.flat[self._starts[user] : self._ends[user]]

    def __iter__(self):
        flat = self.flat
        return (flat[a:b] for a, b in zip(self._starts, self._ends))


def history_bounds(n_train: np.ndarray) -> np.ndarray:
    """(n_users + 1,) offsets into the flat cached sequences: 0, then where
    each user's run of max(n_train - 1, 0) rows ends."""
    return np.concatenate(([0], np.cumsum(np.maximum(n_train - 1, 0))))


@dataclass
class EncodedCache:
    """Frozen per-user encoder states plus the metadata prediction needs.

    The four per-user fields keep the checkpoint's layout, one flat array
    each with the users one after another (`UserRows`); `from_flat`
    derives the users' offsets from n_train once.  states[u] has one row
    per encoder state: the origin block (length n_train - 1) followed by
    the destination block.  keys[u] is their projection through the
    attention's state block (`attention_keys`), row for row, or keys is
    None for encoder-only, which does not attend.  Both hold only for the
    weights the cache was built with.  oseq[u] / dseq[u] are the encoded
    locations, and last_dest / n_train let evaluation chain test queries
    onto the training history.
    """

    states: UserRows
    keys: UserRows | None
    oseq: UserRows
    dseq: UserRows
    last_dest: np.ndarray
    n_train: np.ndarray

    @classmethod
    def from_flat(cls, states, keys, oseq, dseq, last_dest, n_train) -> EncodedCache:
        """The cache over flat (2R, sd) states and keys (or None) and (R,)
        sequences, R the sum of max(n_train - 1, 0)."""
        bounds = history_bounds(n_train)
        runs, pairs = bounds.tolist(), (2 * bounds).tolist()
        return cls(
            UserRows(states, pairs),
            None if keys is None else UserRows(keys, pairs),
            UserRows(oseq, runs),
            UserRows(dseq, runs),
            last_dest,
            n_train,
        )


def _leaky_relu(pre: np.ndarray, slope: float) -> np.ndarray:
    """leaky_relu(pre) in a new array, as an elementwise max (min for a
    slope above 1): bit for bit `pre * slope` with `pre` copied in where
    `pre >= 0`, signed zeros included, without a masked pass."""
    out = pre * slope
    return (np.maximum if slope <= 1 else np.minimum)(out, pre, out=out)


def _leaky_relu_slope(positive: np.ndarray, slope: float, out: np.ndarray) -> np.ndarray:
    """The leaky ReLU's derivative, written into `out`: (1 - positive) *
    slope + positive, which is exactly 1.0 where `positive` and `slope`
    elsewhere, without a masked pass or an index array."""
    np.subtract(1.0, positive, out=out)
    out *= slope
    out += positive
    return out


def attention_keys(states: np.ndarray, w_a: np.ndarray) -> np.ndarray:
    """The states' projection through the state block of w_a (the last sd
    rows): the per-state term of the attention scores, which depends on
    no query."""
    return states @ w_a[len(w_a) - w_a.shape[1] :]


def _attend_block(
    q_proj: np.ndarray,
    keys: np.ndarray,
    s: np.ndarray,
    slope: float,
    causal: bool,
    taped: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(summary (n, sd), alpha (S, n, sd), sign mask or None) of the n
    projected queries `q_proj` over the S states `s` and their `keys`:
    scores = leaky_relu(q_proj[e] + keys[s]), alpha their softmax over S
    and the summary the alpha-weighted sum of states, every reduction over
    S along the leading axis.  A causal block's states are the first b of
    each encoder block (origin rows over destination rows) and its queries
    the last n of those b, so only the diagonal triangle is masked: the
    last n rows of each block, state i from query j < i."""
    pre = q_proj[None] + keys[:, None, :]
    positive = (pre >= 0) if taped else None
    alpha = _leaky_relu(pre, slope)  # the scores, then alpha, in place
    if causal:
        n = len(q_proj)
        alpha.reshape(2, -1, *alpha.shape[1:])[:, -n:] += _TRIANGLE[:n, :n]
    alpha -= alpha.max(axis=0)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=0)
    # pre is spent; its buffer takes the weighted states, so a block holds
    # two (S, n, sd) arrays, not three
    summary = np.multiply(alpha, s[:, None], out=pre).sum(axis=0)
    return summary, alpha, positive


def attend(
    q: np.ndarray,
    s: np.ndarray,
    w_a: np.ndarray,
    causal: bool,
    slope: float,
    keys: np.ndarray | None = None,
    taped: bool = False,
) -> tuple[np.ndarray, list]:
    """Per-dimension attention on arrays, the middle of the decoder kernel.

    queries q (E, qw) and states s (S, sd) project through the row blocks
    of w_a (qw + sd, sd); scores = leaky_relu(q_proj[e] + h_proj[s]);
    alpha is their softmax over the states and the summary (E, sd) the
    alpha-weighted sum of states.  A `causal` call's states are E origin
    rows over E destination rows, and query e sees rows 0..e of each.

    Such a call with E > ATTEND_BLOCK runs per block of ATTEND_BLOCK
    queries (`_attend_block`): block [a, b) scores only states 0..b-1 of
    each encoder block and masks only its diagonal.  Each sum over states
    adds the same terms in the same order as one masked block over all
    states and leaves out only exact zeros, so every bit is that block's.
    A non-causal call, and a causal one with E <= ATTEND_BLOCK, is one
    block over all states.

    Returns (summary, blocks): per block, in query order, the states it
    scored (all of `s` for one block), its state-major alpha (S', n, sd)
    over them, and the pre-activations' sign mask that only
    `attend_backward` reads, built for a `taped` call alone (else None).
    `keys`, h_proj computed before (`attention_keys`), may stand in for it
    off the tape only.
    """
    n_q = q.shape[1]
    if keys is None:
        keys = attention_keys(s, w_a)
    elif taped:
        raise ContractViolation("attention keys computed before are for off-tape use only")
    q_proj = q @ w_a[:n_q]
    n_ex, sd = q_proj.shape
    if not causal or n_ex <= ATTEND_BLOCK:
        summary, alpha, positive = _attend_block(q_proj, keys, s, slope, causal, taped)
        return summary, [(s, alpha, positive)]
    s_blocks, k_blocks = s.reshape(2, n_ex, sd), keys.reshape(2, n_ex, sd)
    summary, blocks = np.empty((n_ex, sd)), []
    for a in range(0, n_ex, ATTEND_BLOCK):
        b = min(a + ATTEND_BLOCK, n_ex)
        rows = s_blocks[:, :b].reshape(2 * b, sd)  # states 0..b-1 of each encoder block
        keys_b = k_blocks[:, :b].reshape(2 * b, sd)
        summary[a:b], alpha, positive = _attend_block(
            q_proj[a:b], keys_b, rows, slope, True, taped
        )
        blocks.append((rows, alpha, positive))
    return summary, blocks


def attend_backward(
    g: np.ndarray,
    q: np.ndarray,
    s: np.ndarray,
    w_a: np.ndarray,
    blocks: list,
    slope: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients (of q, s, w_a) of `attend`'s summary, given its
    gradient g (E, sd) and the `blocks` of its taped call: the analytic
    backward of the chain, expression for expression, on each block's
    (S', n, sd) layout; alpha takes none.

    The sums over states (the softmax's and d_q_proj) run per block, as
    forward.  The sums over queries (d_s_proj and g * alpha) run on across
    blocks: a block first adds the sums so far of the states that earlier
    blocks saw into its first query's terms, then sums over its queries, so
    each state's sum adds the same terms in the same order as one block
    would, less exact zeros."""
    n_q = q.shape[1]
    w_q, w_s = w_a[:n_q], w_a[n_q:]
    d_q_rows, d_s_proj, g_alpha, a = [], None, None, 0
    for rows, alpha, positive in blocks:
        n = alpha.shape[1]
        g_rows = g[a : a + n]
        d_pre = g_rows[None] * rows[:, None]  # d alpha, then d scores, then d pre
        # scratch then takes the slope factor and g * alpha, so the backward
        # holds two (S, n, sd) arrays besides alpha
        scratch = d_pre * alpha
        d_pre -= scratch.sum(axis=0)
        d_pre *= alpha
        d_pre *= _leaky_relu_slope(positive, slope, out=scratch)
        d_q_rows.append(d_pre.sum(axis=0))
        np.multiply(g_rows[None], alpha, out=scratch)
        if a:  # earlier blocks saw states 0..a-1 of each encoder block
            for terms, sums in ((d_pre, d_s_proj), (scratch, g_alpha)):
                terms.reshape(2, -1, *terms.shape[1:])[:, :a, 0] += sums.reshape(2, a, -1)
        d_s_proj, g_alpha = d_pre.sum(axis=1), scratch.sum(axis=1)
        a += n
    d_q_proj = d_q_rows[0] if len(d_q_rows) == 1 else np.concatenate(d_q_rows)
    return (
        d_q_proj @ w_q.T,
        g_alpha + d_s_proj @ w_s.T,
        np.concatenate([q.T @ d_q_proj, s.T @ d_s_proj]),
    )


def in_range(idx: np.ndarray, n: int) -> bool:
    """Whether every int64 index in `idx`, of either byte order (a mapped
    `<i8` payload view too), lies in [0, n): one reduction over `idx` read
    as unsigned, where a negative index is a huge one."""
    return not idx.size or np.maximum.reduce(idx.view(_UINT64_OF[idx.dtype]), axis=None) < n


def _is_index(x) -> bool:
    """Whether `x` is one integer index: a Python or numpy integer, not a
    bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def param_specs(config: ModelConfig, vocab: Vocab) -> list[ParamSpec]:
    """Every parameter of a model: name, shape and initialiser, in draw
    order, which is also the order of `Model.params` and of a checkpoint."""
    c, v = config, vocab
    sd = c.state_dim
    specs = [ParamSpec("emb/loc", (v.n_locations, c.dim), embedding_init)]
    if c.variant in ("stod-ppa", "encoder-only", "user-add", "user-concat"):
        specs += [
            ParamSpec("emb/geo", (v.n_geohashes, c.dim), embedding_init),
            ParamSpec("emb/slot", (N_TIMESLOTS, c.dim), embedding_init),
        ]
    if c.variant != "encoder-only":
        # user-add sums the user vector into the H-sized summary, so its
        # embedding rows live in the hidden space instead of dim
        user_dim = c.hdim if c.variant == "user-add" else c.dim
        specs.append(ParamSpec("emb/user", (v.n_users, user_dim), embedding_init))
    if c.variant != "decoder-only":
        encoder = (
            lstm_spec(c.dim, c.hdim)
            if c.variant == "od-ppa"
            else st_lstm_spec(c.dim, c.hdim, v.n_locations)
        )
        specs += prefixed("enc_o", encoder) + prefixed("enc_d", encoder)
    if c.variant == "encoder-only":
        out_rows = 2 * c.hdim
    else:
        query_width = (2 if c.variant in ("user-add", "user-concat") else 3) * c.dim
        specs.append(ParamSpec("attn/W_A", (query_width + sd, sd), glorot_uniform))
        out_rows = sd + (c.dim if c.variant == "user-concat" else 0)
    specs.append(ParamSpec("out/W_loc", (out_rows, v.n_locations), glorot_uniform))
    return specs


class Model:
    """A trainable recommender over a fixed vocabulary and interval tables.

    Without `params` every parameter is drawn from `config.seed`
    (`param_specs`); with `params` (name -> array) the model wraps those
    arrays as they are, with no draw, no copy and no check: they are the
    views that `load_checkpoint` cut from `param_specs`.
    """

    def __init__(
        self,
        config: ModelConfig,
        vocab: Vocab,
        tables: IntervalTables,
        params: Mapping[str, np.ndarray] | None = None,
    ):
        if vocab.n_locations < 1:
            raise ContractViolation("vocabulary has no locations")
        if tables.spatial.shape != (vocab.n_locations, vocab.n_locations):
            raise ContractViolation("interval table shape does not match vocabulary")
        if tables.temporal.shape != tables.spatial.shape:
            raise ContractViolation("interval tables disagree in shape")
        self.config = config
        self.vocab = vocab
        self.tables = tables
        if params is None:
            rng = np.random.default_rng(config.seed)
            self.params = draw_params(param_specs(config, vocab), rng)
        else:
            self.params = {name: ag.parameter(a) for name, a in params.items()}
        self.enc_o = scope(self.params, "enc_o")
        self.enc_d = scope(self.params, "enc_d")
        self.loss_curve: list[float] = []

    # -- variant geometry -------------------------------------------------

    @property
    def _has_attention(self) -> bool:
        """Every variant but encoder-only attends, with a user embedding."""
        return self.config.variant != "encoder-only"

    # -- forward pieces ---------------------------------------------------

    def _st_input(self, seq: np.ndarray, slots: np.ndarray, loc_emb: Tensor) -> STLSTMInput:
        return STLSTMInput(
            loc=loc_emb,
            geo=gather_input(self.params["emb/geo"], self.vocab.loc_geohash[seq]),
            slot=gather_input(self.params["emb/slot"], slots),
            dspace=ag.constant(self.tables.spatial[seq]),
            dtime=ag.constant(self.tables.temporal[seq]),
        )

    def _encode(self, seqs: Sequences) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Return (states_o, states_d, o_emb, d_emb) for one user history,
        or, as constants, for B equal-length histories whose fields are
        stacked (B, T) arrays (`gather_input`)."""
        o_emb = gather_input(self.params["emb/loc"], seqs.oseq)
        d_emb = gather_input(self.params["emb/loc"], seqs.dseq)
        v = self.config.variant
        if v == "decoder-only":
            return o_emb, d_emb, o_emb, d_emb
        if v == "od-ppa":
            states_o, _, _ = lstm_encode(self.enc_o, o_emb)
            states_d, _, _ = lstm_encode(self.enc_d, d_emb)
            return states_o, states_d, o_emb, d_emb
        states_o = st_lstm_encode(self.enc_o, self._st_input(seqs.oseq, seqs.o_slots, o_emb))
        states_d = st_lstm_encode(self.enc_d, self._st_input(seqs.dseq, seqs.d_slots, d_emb))
        return states_o, states_d, o_emb, d_emb

    def _encode_all(self, histories: list[Sequences]) -> list[tuple[np.ndarray, np.ndarray]]:
        """(states_o, states_d) of each history as arrays (`encode_by_length`)."""
        return encode_by_length(histories, lambda rows: [t.value for t in self._encode(rows)[:2]])

    @property
    def _stack_axis(self) -> int:
        """The axis along which the encoders' outputs join: the origin
        block over the destination block for the decoder, or for
        encoder-only each step's aligned (origin, destination) state pair."""
        return 1 if self.config.variant == "encoder-only" else 0

    def _decode_forward(
        self,
        states: np.ndarray,
        o_rows: np.ndarray,
        d_rows: np.ndarray,
        user_vec: np.ndarray,
        causal: bool,
        keys: np.ndarray | None = None,
        taped: bool = False,
    ) -> tuple[np.ndarray, list, np.ndarray]:
        """The attending decoder on arrays: (summary, blocks, q) for E
        queries q = (user_vec, o_rows[e], d_rows[e]) against `states` (the
        origin block over the destination block), query e seeing only
        states 0..e of each block when `causal`.  The summary, with the
        user vector added (user-add) or joined (user-concat), is the
        output layer's input.  `blocks` are `attend`'s, with their sign
        masks only when `taped`; `keys` go to `attend`."""
        c, w_a = self.config, self.params["attn/W_A"].value
        user_rows = user_vec[None].repeat(len(o_rows), axis=0)
        personal = c.variant not in ("user-add", "user-concat")
        q = np.concatenate((user_rows, o_rows, d_rows) if personal else (o_rows, d_rows), axis=1)
        summary, blocks = attend(q, states, w_a, causal, c.leaky_slope, keys, taped)
        if c.variant == "user-add":
            summary += user_vec
        elif c.variant == "user-concat":
            summary = np.concatenate((summary, user_rows), axis=1)
        return summary, blocks, q

    def _decode(
        self, states: Tensor, o_emb: Tensor, d_emb: Tensor, user: int
    ) -> tuple[Tensor, list]:
        """(summary, blocks) of `_decode_forward` for user `user`'s queries
        (o_emb[e], d_emb[e]), causal under the configured attention
        context, the summary as one tape node.

        The backward is that of the taped composition it replaces (the
        user rows' `take_rows`, the queries' `concat`, the attention, the
        user-add `add` or user-concat `concat`), expression for
        expression.  Each input takes one gradient from this node, so the
        order in which they take them changes no bit.
        """
        c, p = self.config, self.params
        v, table, w_a = c.variant, p["emb/user"], p["attn/W_A"]
        causal = c.attention_context == "causal"
        summary, blocks, q = self._decode_forward(
            states.value, o_emb.value, d_emb.value, table.value[user], causal, taped=True
        )

        def backward(g):
            rows = np.full(len(q), user, dtype=np.int64)  # the gathered user rows
            if v == "user-add":
                rows, d_user = np.asarray(user), g.sum(axis=0)
            elif v == "user-concat":
                d_user, g = g[:, c.state_dim :], g[:, : c.state_dim]
            d_q, d_s, d_w = attend_backward(g, q, states.value, w_a.value, blocks, c.leaky_slope)
            if v not in ("user-add", "user-concat"):  # the user rows lead the queries
                d_user, d_q = d_q[:, : c.dim], d_q[:, c.dim :]
            o_d = (o_emb, d_q[:, : c.dim]), (d_emb, d_q[:, c.dim :])
            for t, d in ((states, d_s), (w_a, d_w), *o_d):
                if ag.needs_grad(t):
                    t.accumulate(d)
            if ag.needs_grad(table):
                ag.scatter_rows(table, rows, d_user)

        return ag.fused(summary, (states, o_emb, d_emb, table, w_a), backward), blocks

    def _forward(self, seqs: Sequences, user: int) -> tuple[Tensor, list | None]:
        """(head, `attend`'s blocks) for every example of one user's
        `encoder_sequences`: the output layer's input, the decoder's summary,
        or for encoder-only one aligned state pair per example and None."""
        states_o, states_d, o_emb, d_emb = self._encode(seqs)
        states = ag.concat([states_o, states_d], axis=self._stack_axis)
        if not self._has_attention:
            return states, None
        return self._decode(states, o_emb, d_emb, user)

    def _loss(self, user: int, seqs: Sequences) -> Tensor:
        head, _ = self._forward(seqs, user)
        return ag.output_loss(head, self.params["out/W_loc"], seqs.targets)

    # -- training ---------------------------------------------------------

    def fit(self, train: Corpus) -> list[float]:
        """Train in place; returns the per-epoch mean user loss curve."""
        if train.n_users != self.vocab.n_users:
            raise ContractViolation("training corpus does not match the vocabulary")
        usable = [
            (u, encoder_sequences(trips, self.config.utc_offset_hours))
            for u, trips in enumerate(train.trips_by_user)
            if len(trips) >= 2
        ]
        self.loss_curve = train_per_user(self.params, self.config, usable, self._loss, train.users)
        return self.loss_curve

    # -- cached prediction ------------------------------------------------

    def build_cache(self, train: Corpus) -> EncodedCache:
        """Freeze encoder states for every user of the training corpus, and
        for an attending variant their attention keys, in the flat layout
        (`EncodedCache`); histories of equal length are encoded together
        (`_encode_all`)."""
        utc = self.config.utc_offset_hours
        seqs = [encoder_sequences(trips, utc) for trips in train.trips_by_user]
        pairs = self._encode_all(seqs)
        sd = self.config.state_dim
        states = np.concatenate([np.empty((0, sd)), *(s for pair in pairs for s in pair)])
        keys = None
        if self._has_attention:  # per user, the shapes `attend` multiplies
            w_a = self.params["attn/W_A"].value
            per_user = (attention_keys(np.concatenate(pair), w_a) for pair in pairs)
            keys = np.concatenate([np.empty((0, sd)), *per_user])
        oseq, dseq = (
            np.concatenate([np.empty(0, dtype=np.int64), *(getattr(s, f) for s in seqs)])
            for f in ("oseq", "dseq")
        )
        histories = train.trips_by_user
        last_dest = np.array([t[-1].dest_loc if t else -1 for t in histories], dtype=np.int64)
        n_train = np.array([len(t) for t in histories], dtype=np.int64)
        return EncodedCache.from_flat(states, keys, oseq, dseq, last_dest, n_train)

    def _probs(
        self,
        states: np.ndarray,
        o_rows: np.ndarray,
        d_rows: np.ndarray,
        user_vec: np.ndarray | None,
        causal: bool,
        keys: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list | None]:
        """(probs, `attend`'s blocks) of the queries (o_rows[e], d_rows[e])
        for the user vector `user_vec`: `softmax_rows` of the output layer
        over the head, `_decode_forward`'s summary or for encoder-only
        `states` (one pair row per query), whose blocks are None."""
        head, blocks = states, None
        if self._has_attention:
            head, blocks, _ = self._decode_forward(states, o_rows, d_rows, user_vec, causal, keys)
        return softmax_rows(head @ self.params["out/W_loc"].value), blocks

    def _predict_states(
        self,
        states_np: np.ndarray,
        origins: np.ndarray,
        dprevs: np.ndarray,
        user_vec: np.ndarray | None,
        keys: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """`_probs` against frozen states in the cache's layout (the origin
        block over the destination block), all of which every query sees,
        for the user vector `user_vec` (encoder-only reads none); `keys`
        are the states' attention keys, computed here when None."""
        if states_np.shape[0] == 0:
            raise ColdStartError("no encoder states available for this history")
        if self.config.variant == "encoder-only":
            half = states_np.shape[0] // 2
            pair = np.concatenate([states_np[half - 1], states_np[-1]])
            states_np = np.tile(pair, (len(origins), 1))
        emb = self.params["emb/loc"].value
        return self._probs(states_np, emb[origins], emb[dprevs], user_vec, False, keys)

    def _predict_cached(self, cache: EncodedCache, user: int, origins, dprevs):
        """`_predict_states` of one known user, with their embedding row,
        against the cache."""
        user_vec = self.params["emb/user"].value[user] if self._has_attention else None
        keys = None if cache.keys is None else cache.keys[user]
        return self._predict_states(cache.states[user], origins, dprevs, user_vec, keys)

    def predict_batch(
        self, cache: EncodedCache, user: int, origins, dprevs
    ) -> np.ndarray:
        """(Q, |L|) next-destination distributions for one user's queries:
        `origins` and `dprevs` are two integer sequences of length Q."""
        self._check_user(user)
        origins, dprevs = np.asarray(origins), np.asarray(dprevs)
        if origins.ndim != 1 or origins.shape != dprevs.shape:
            raise ContractViolation(
                "origins and previous destinations must be two 1-D sequences of one length"
            )
        if origins.size and not (origins.dtype.kind in "iu" and dprevs.dtype.kind in "iu"):
            raise ContractViolation("location indices must be integers")
        origins = origins.astype(np.int64, copy=False)
        dprevs = dprevs.astype(np.int64, copy=False)
        self._check_locs(origins, dprevs)
        probs, _ = self._predict_cached(cache, user, origins, dprevs)
        return probs

    def _check_user(self, user) -> None:
        if not _is_index(user):
            raise ContractViolation(f"user index must be an integer, not {user!r}")
        if not 0 <= user < self.vocab.n_users:
            raise ContractViolation(f"user index {user} out of range")

    def _check_locs(self, *seqs: np.ndarray) -> None:
        """Refuse int64 location indices outside [0, |L|)."""
        for idx in seqs:
            if not in_range(idx, self.vocab.n_locations):
                raise ContractViolation("location index out of range")

    def _check_loc_pair(self, origin, dprev) -> None:
        """One query's origin and previous destination: plain comparisons,
        with no array reduction."""
        if not (_is_index(origin) and _is_index(dprev)):
            raise ContractViolation(
                f"location indices must be integers, not {origin!r} and {dprev!r}"
            )
        if not (0 <= origin < self.vocab.n_locations and 0 <= dprev < self.vocab.n_locations):
            raise ContractViolation("location index out of range")

    def attention(
        self, cache: EncodedCache, user: int, origin: int, dprev: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(probs, origin_weights, dest_weights) for one query.

        Weights are the query's (S, sd) column `alpha[:, 0]`, averaged over
        hidden dimensions and split into origin- and destination-state blocks.
        """
        if not self._has_attention:
            raise ContractViolation(
                f"variant {self.config.variant!r} has no attention weights"
            )
        self._check_user(user)
        self._check_loc_pair(origin, dprev)
        query = np.array([origin, dprev], dtype=np.int64)
        probs, [(_, alpha, _)] = self._predict_cached(cache, user, query[:1], query[1:])
        mean_w = alpha[:, 0].sum(axis=1) / alpha.shape[2]  # np.mean's sum and divide
        half = len(mean_w) // 2
        return probs[0], mean_w[:half], mean_w[half:]

    # -- cold start -------------------------------------------------------

    def cold_user_vector(self) -> np.ndarray:
        """Stand-in embedding for unseen users: the mean over known users."""
        if "emb/user" not in self.params:
            return np.zeros(0)
        return self.params["emb/user"].value.mean(axis=0)

    def predict_cold(
        self, prefix: list[Trip], origin: int, prev_dest: int
    ) -> np.ndarray:
        """Distribution for a user outside the training population.

        `prefix` is the user's full earlier history: one encode over every
        origin and destination in it (nothing is trimmed, so one prior trip
        is enough context), then one decode of the query (origin, previous
        destination, mean user embedding) against all its states.
        """
        if not prefix:
            raise ColdStartError("cold-start prediction needs at least one prior trip")
        self._check_loc_pair(origin, prev_dest)
        seqs = encoder_sequences(prefix, self.config.utc_offset_hours, aligned=True)
        self._check_locs(seqs.oseq, seqs.dseq)
        query = np.array([origin, prev_dest], dtype=np.int64)
        states = np.concatenate(self._encode_all([seqs])[0], axis=0)
        probs, _ = self._predict_states(states, query[:1], query[1:], self.cold_user_vector())
        return probs[0]

    def predict_cold_cohort(self, cohort: list[list[Trip]]) -> list[np.ndarray]:
        """Cold-start distributions for every history in a cohort of unseen
        users: for trips 1..n-1 of each, (n - 1, |L|) rows, row j - 1 equal
        to `predict_cold(trips[:j], origin_j, dest_(j-1))` up to rounding;
        (0, |L|) rows for a history of fewer than two trips.

        States depend only on the prefix, so a history is encoded once
        over trips[:-1], and every query is decoded in one batch: query j
        sees the first j states of each block, which is a causal `attend`.
        Histories of equal length are encoded together (`_encode_all`);
        each is then decoded on its own, so a user's rows do not depend
        on the rest of the cohort.  Every location is range-checked first.
        """
        utc = self.config.utc_offset_hours
        seqs = [encoder_sequences(trips[:-1], utc, aligned=True) for trips in cohort]
        queries = [np.array([t.origin_loc for t in trips[1:]], dtype=np.int64) for trips in cohort]
        last = np.array([t.dest_loc for trips in cohort for t in trips[-1:]], dtype=np.int64)
        self._check_locs(last)  # a target, which no encode reads
        for s, q in zip(seqs, queries):
            self._check_locs(s.oseq, s.dseq, q)
        out = [np.zeros((0, self.vocab.n_locations))] * len(cohort)
        asked = [u for u, q in enumerate(queries) if len(q)]
        emb, cold = self.params["emb/loc"].value, self.cold_user_vector()
        for u, pair in zip(asked, self._encode_all([seqs[u] for u in asked])):
            states = np.concatenate(pair, axis=self._stack_axis)
            out[u], _ = self._probs(states, emb[queries[u]], emb[seqs[u].dseq], cold, True)
        return out
