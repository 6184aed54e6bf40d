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
states are frozen into an EncodedCache; prediction only re-runs the
decoder against the cached states.  One decoder (`Model._decode`)
serves training, cached prediction and cold start, and every prediction
runs it off the tape through `Model._probs`; a cold user is the one row
of a table holding the mean user embedding.

One encode path (`Model._encode`) serves training and inference.  Off
the tape every history goes through `stlstm.encode_by_length`
(`Model._encode_all`): the fields of up to `stlstm.MAX_ROWS`
equal-length histories are stacked along a leading row axis, which each
encoder runs as one recurrence, with the same bits as one encode per
history.  A cold user's history is encoded once, and all of its queries
are decoded in one batch under the causal mask, because encoder states
depend only on the prefix.

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
from .nn import (
    ContractViolation,
    ParamSpec,
    TrainConfig,
    draw_params,
    embedding_init,
    glorot_uniform,
    prefixed,
    setting,
    train_per_user,
    wrap_params,
)
from .stlstm import (
    LSTMWeights,
    STLSTMInput,
    STLSTMWeights,
    encode_by_length,
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

_MASK_OFF = -1e30  # additive mask value; exp underflows to exactly zero


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


@dataclass
class EncodedCache:
    """Frozen per-user encoder states plus the metadata prediction needs.

    states[u] has one row per encoder state: the origin block (length
    n_train - 1) followed by the destination block.  last_dest / n_train
    let evaluation chain test queries onto the training history.
    """

    states: list[np.ndarray]
    oseq: list[np.ndarray]
    dseq: list[np.ndarray]
    last_dest: np.ndarray
    n_train: np.ndarray


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


def attend(
    queries: Tensor, states: Tensor, w_a: Tensor, mask: np.ndarray | None, slope: float
) -> tuple[Tensor, Tensor]:
    """Per-dimension attention as one tape node.

    queries (E, qw) and states (S, sd) project through the row blocks of
    w_a (qw + sd, sd); scores = leaky_relu(q_proj[e] + h_proj[s]) plus the
    optional additive mask (E, S, 1); alpha (E, S, sd) is the softmax over
    S and the summary (E, sd) the alpha-weighted sum of states.  Returns
    (summary, alpha); alpha is a constant, no gradient flows through it.
    The backward is the analytic one of that chain, expression for
    expression.
    """
    q, s, w = queries.value, states.value, w_a.value
    n_q = q.shape[1]
    w_q, w_s = w[:n_q], w[n_q:]
    pre = (q @ w_q)[:, None, :] + (s @ w_s)[None, :, :]
    positive = pre >= 0  # for the backward
    alpha = _leaky_relu(pre, slope)  # the scores, then alpha, in place
    if mask is not None:
        alpha += mask
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)
    # pre is spent; its buffer takes the weighted states, so a call holds
    # two (E, S, sd) arrays, not three
    summary = np.multiply(alpha, s[None], out=pre).sum(axis=1)

    def backward(g):
        d_pre = g[:, None, :] * s[None]  # d alpha, then d scores, then d pre
        # scratch then takes the slope factor and g * alpha, so the backward
        # holds two (E, S, sd) arrays besides alpha
        scratch = d_pre * alpha
        d_pre -= scratch.sum(axis=1, keepdims=True)
        d_pre *= alpha
        d_pre *= _leaky_relu_slope(positive, slope, out=scratch)
        d_q_proj = d_pre.sum(axis=1)
        d_s_proj = d_pre.sum(axis=0)
        if ag.needs_grad(queries):
            queries.accumulate(d_q_proj @ w_q.T)
        if ag.needs_grad(states):
            g_alpha = np.multiply(g[:, None, :], alpha, out=scratch)
            states.accumulate(g_alpha.sum(axis=0) + d_s_proj @ w_s.T)
        if ag.needs_grad(w_a):
            w_a.accumulate(np.concatenate([q.T @ d_q_proj, s.T @ d_s_proj]))

    return ag.fused(summary, (queries, states, w_a), backward), ag.constant(alpha)


def _causal_mask(n_examples: int) -> np.ndarray:
    """Additive (E, 2E, 1) mask: example e sees the first e+1 states of
    each encoder block."""
    lower = np.tril(np.ones((n_examples, n_examples), dtype=bool))
    allowed = np.concatenate([lower, lower], axis=1)
    return np.where(allowed, 0.0, _MASK_OFF)[:, :, None]


def _encoder(config: ModelConfig, n_locations: int):
    """(weights class, field declaration) of each of the two encoders, or
    None for decoder-only."""
    if config.variant == "decoder-only":
        return None
    if config.variant == "od-ppa":
        return LSTMWeights, lstm_spec(config.dim, config.hdim)
    return STLSTMWeights, st_lstm_spec(config.dim, config.hdim, n_locations)


def param_specs(config: ModelConfig, vocab: Vocab) -> list[ParamSpec]:
    """Every parameter of a model: name, shape and initialiser, in draw
    order, which is also the order of `Model.params` and of a checkpoint."""
    c, v = config, vocab
    sd = c.state_dim
    specs = [ParamSpec("emb/loc", (v.n_locations, c.dim), embedding_init)]
    if c.variant in ("stod-ppa", "encoder-only", "user-add", "user-concat"):
        specs += [
            ParamSpec("emb/geo", (v.n_geohashes, c.dim), embedding_init),
            ParamSpec("emb/slot", (v.n_timeslots, c.dim), embedding_init),
        ]
    if c.variant != "encoder-only":
        # user-add sums the user vector into the H-sized summary, so its
        # embedding rows live in the hidden space instead of dim
        user_dim = c.hdim if c.variant == "user-add" else c.dim
        specs.append(ParamSpec("emb/user", (v.n_users, user_dim), embedding_init))
    encoder = _encoder(c, v.n_locations)
    if encoder is not None:
        specs += prefixed("enc_o", encoder[1]) + prefixed("enc_d", encoder[1])
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

    Without `params` every parameter is drawn from `config.seed`; with
    `params` (name -> array, as `param_specs` declares them) the model
    wraps those arrays as they are, with no draw and no copy.
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
        specs = param_specs(config, vocab)
        if params is None:
            self.params = draw_params(specs, np.random.default_rng(config.seed))
        else:
            self.params = wrap_params(specs, params)
        encoder = _encoder(config, vocab.n_locations)
        self.enc_o: STLSTMWeights | LSTMWeights | None = None
        self.enc_d: STLSTMWeights | LSTMWeights | None = None
        if encoder is not None:  # the same Tensors as `params`, by field name
            self.enc_o = encoder[0].from_params(self.params, "enc_o")
            self.enc_d = encoder[0].from_params(self.params, "enc_d")
        self.loss_curve: list[float] = []

    # -- variant geometry -------------------------------------------------

    @property
    def _has_attention(self) -> bool:
        """Every variant but encoder-only attends, with a user embedding."""
        return self.config.variant != "encoder-only"

    # -- forward pieces ---------------------------------------------------

    def _batch(self, trips: list[Trip]) -> tuple[Sequences, np.ndarray | None]:
        """One user's training arrays: the encoder sequences and, for causal
        attention, the mask that goes with them."""
        mask = None
        if self.config.attention_context == "causal" and self._has_attention:
            mask = _causal_mask(len(trips) - 1)
        return encoder_sequences(trips, self.config.utc_offset_hours), mask

    def _st_input(self, seq: np.ndarray, slots: np.ndarray, loc_emb: Tensor) -> STLSTMInput:
        return STLSTMInput(
            loc=loc_emb,
            geo=ag.take_rows(self.params["emb/geo"], self.vocab.loc_geohash[seq]),
            slot=ag.take_rows(self.params["emb/slot"], slots),
            dspace=ag.constant(self.tables.spatial[seq]),
            dtime=ag.constant(self.tables.temporal[seq]),
        )

    def _encode(self, seqs: Sequences) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Return (states_o, states_d, o_emb, d_emb) for one user history,
        or, off the tape, for B equal-length histories whose fields are
        stacked (B, T) arrays."""
        o_emb = ag.take_rows(self.params["emb/loc"], seqs.oseq)
        d_emb = ag.take_rows(self.params["emb/loc"], seqs.dseq)
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
        """(states_o, states_d) of each history, off the tape (`encode_by_length`)."""
        return encode_by_length(histories, lambda rows: [t.value for t in self._encode(rows)[:2]])

    def _stack(self, states_o: Tensor, states_d: Tensor) -> Tensor:
        """The decoder's states: the origin block over the destination
        block, or for encoder-only each step's aligned (origin, destination)
        state pair."""
        axis = 1 if self.config.variant == "encoder-only" else 0
        return ag.concat([states_o, states_d], axis=axis)

    def _decode(
        self,
        states: Tensor,
        o_emb: Tensor,
        d_emb: Tensor,
        user: int,
        users: Tensor | None,
        mask: np.ndarray | None,
    ) -> tuple[Tensor, Tensor | None]:
        """Logits (E, |L|) and attention weights for E queries
        (user, o_emb[e], d_emb[e]) against `states` (see `_stack`; for
        encoder-only one pair row per query goes straight into the output
        layer and there are no weights).  The user is row `user` of
        `users`, or of the user embedding when `users` is None."""
        c, w_out = self.config, self.params["out/W_loc"]
        v = c.variant
        if v == "encoder-only":
            return ag.matmul(states, w_out), None
        table = self.params["emb/user"] if users is None else users

        def user_rows() -> Tensor:
            return ag.take_rows(table, np.full(o_emb.shape[0], user, dtype=np.int64))

        cols = [o_emb, d_emb]
        if v not in ("user-add", "user-concat"):
            cols.insert(0, user_rows())
        queries = ag.concat(cols, axis=1)
        summary, alpha = attend(queries, states, self.params["attn/W_A"], mask, c.leaky_slope)
        if v == "user-add":
            summary = ag.add(summary, ag.take_rows(table, user))
        elif v == "user-concat":
            summary = ag.concat([summary, user_rows()], axis=1)
        return ag.matmul(summary, w_out), alpha

    def _forward(self, batch: tuple, user: int) -> tuple[Tensor, Tensor | None]:
        """(logits (E, |L|), alpha) for every example of one `_batch`."""
        seqs, mask = batch
        states_o, states_d, o_emb, d_emb = self._encode(seqs)
        return self._decode(self._stack(states_o, states_d), o_emb, d_emb, user, None, mask)

    def _loss(self, user: int, batch: tuple) -> Tensor:
        logits, _ = self._forward(batch, user)
        return ag.mean_cross_entropy(logits, batch[0].targets)

    # -- training ---------------------------------------------------------

    def fit(self, train: Corpus) -> list[float]:
        """Train in place; returns the per-epoch mean user loss curve."""
        if train.n_users != self.vocab.n_users:
            raise ContractViolation("training corpus does not match the vocabulary")
        usable = [
            (u, self._batch(trips))
            for u, trips in enumerate(train.trips_by_user)
            if len(trips) >= 2
        ]
        self.loss_curve = train_per_user(self.params, self.config, usable, self._loss, train.users)
        return self.loss_curve

    # -- cached prediction ------------------------------------------------

    def build_cache(self, train: Corpus) -> EncodedCache:
        """Freeze encoder states for every user of the training corpus;
        histories of equal length are encoded together (`_encode_all`)."""
        utc = self.config.utc_offset_hours
        seqs = [encoder_sequences(trips, utc) for trips in train.trips_by_user]
        states = [np.concatenate(pair, axis=0) for pair in self._encode_all(seqs)]
        histories = train.trips_by_user
        last_dest = np.array([t[-1].dest_loc if t else -1 for t in histories], dtype=np.int64)
        n_train = np.array([len(t) for t in histories], dtype=np.int64)
        return EncodedCache(
            states, [s.oseq for s in seqs], [s.dseq for s in seqs], last_dest, n_train
        )

    def _probs(
        self, states: Tensor, origins: np.ndarray, dprevs: np.ndarray, user: int, users, mask
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(probs, alpha) of the queries (origins[e], dprevs[e]): `_decode`
        and its softmax, off the tape; alpha is None for encoder-only."""
        emb = self.params["emb/loc"]
        with ag.no_grad():
            origin_emb, dprev_emb = ag.take_rows(emb, origins), ag.take_rows(emb, dprevs)
            logits, alpha = self._decode(states, origin_emb, dprev_emb, user, users, mask)
            probs = ag.softmax(logits, axis=1)
        return probs.value, (None if alpha is None else alpha.value)

    def _predict_states(
        self, states_np: np.ndarray, origins: np.ndarray, dprevs: np.ndarray, user: int, users=None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """`_probs` against frozen states in the cache's layout (the origin
        block over the destination block), all of which every query sees."""
        if states_np.shape[0] == 0:
            raise ColdStartError("no encoder states available for this history")
        if self.config.variant == "encoder-only":
            half = states_np.shape[0] // 2
            pair = np.concatenate([states_np[half - 1], states_np[-1]])
            states_np = np.tile(pair, (len(origins), 1))
        return self._probs(ag.constant(states_np), origins, dprevs, user, users, None)

    def predict_batch(
        self, cache: EncodedCache, user: int, origins, dprevs
    ) -> np.ndarray:
        """(Q, |L|) next-destination distributions for one user's queries."""
        self._check_user(user)
        origins = np.asarray(origins, dtype=np.int64)
        dprevs = np.asarray(dprevs, dtype=np.int64)
        self._check_locs(origins, dprevs)
        probs, _ = self._predict_states(cache.states[user], origins, dprevs, user)
        return probs

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.vocab.n_users:
            raise ContractViolation(f"user index {user} out of range")

    def _check_locs(self, *seqs: np.ndarray) -> None:
        for idx in seqs:
            if idx.size and (idx.min() < 0 or idx.max() >= self.vocab.n_locations):
                raise ContractViolation("location index out of range")

    def attention(
        self, cache: EncodedCache, user: int, origin: int, dprev: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(probs, origin_weights, dest_weights) for one query.

        Weights are attention fractions averaged over hidden dimensions,
        split into the origin-state block and the destination-state block.
        """
        if not self._has_attention:
            raise ContractViolation(
                f"variant {self.config.variant!r} has no attention weights"
            )
        self._check_user(user)
        # plain comparisons: one query needs no array reduction
        if not (0 <= origin < self.vocab.n_locations and 0 <= dprev < self.vocab.n_locations):
            raise ContractViolation("location index out of range")
        query = np.array([origin, dprev], dtype=np.int64)
        probs, alpha = self._predict_states(cache.states[user], query[:1], query[1:], user)
        mean_w = alpha[0].mean(axis=1)
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
        is enough context), then one `_decode` of the query (origin,
        previous destination, mean user embedding) against all its states.
        """
        if not prefix:
            raise ColdStartError("cold-start prediction needs at least one prior trip")
        seqs = encoder_sequences(prefix, self.config.utc_offset_hours, aligned=True)
        query = np.array([origin, prev_dest], dtype=np.int64)
        self._check_locs(seqs.oseq, seqs.dseq, query)
        states = np.concatenate(self._encode_all([seqs])[0], axis=0)
        users = ag.constant(self.cold_user_vector()[None])
        probs, _ = self._predict_states(states, query[:1], query[1:], 0, users)
        return probs[0]

    def predict_cold_cohort(self, cohort: list[list[Trip]]) -> list[np.ndarray]:
        """Cold-start distributions for every history in a cohort of unseen
        users: for trips 1..n-1 of each, (n - 1, |L|) rows, row j - 1 equal
        to `predict_cold(trips[:j], origin_j, dest_(j-1))` up to rounding;
        (0, |L|) rows for a history of fewer than two trips.

        States depend only on the prefix, so a history is encoded once
        over trips[:-1], and every query is decoded in one batch: query j
        sees the first j states of each block, which is `_causal_mask`.
        Histories of equal length are encoded together (`_encode_all`);
        each is then decoded on its own, so a user's rows do not depend
        on the rest of the cohort.
        """
        utc = self.config.utc_offset_hours
        seqs = [encoder_sequences(trips[:-1], utc, aligned=True) for trips in cohort]
        queries = [np.array([t.origin_loc for t in trips[1:]], dtype=np.int64) for trips in cohort]
        for s, q in zip(seqs, queries):
            self._check_locs(s.oseq, s.dseq, q)
        out = [np.zeros((0, self.vocab.n_locations))] * len(cohort)
        asked = [u for u, q in enumerate(queries) if len(q)]
        masks = {n: _causal_mask(n) for n in {len(queries[u]) for u in asked}}
        users = ag.constant(self.cold_user_vector()[None])
        for u, (states_o, states_d) in zip(asked, self._encode_all([seqs[u] for u in asked])):
            states = self._stack(ag.constant(states_o), ag.constant(states_d))
            mask = masks[len(queries[u])]
            out[u], _ = self._probs(states, queries[u], seqs[u].dseq, 0, users, mask)
        return out
