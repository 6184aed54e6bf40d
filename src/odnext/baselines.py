"""Baselines: destination-frequency rankers and a single-LSTM recommender."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Corpus, Sequences, encoder_sequences
from .nn import (
    ContractViolation,
    ParamSpec,
    TrainConfig,
    draw_params,
    embedding_init,
    glorot_uniform,
    prefixed,
    scope,
    softmax_rows,
    train_per_user,
)
from .stlstm import encode_by_length, gather_input, lstm_encode, lstm_spec

FREQUENCY_KINDS = ("top", "u-top", "taxi")
TAXI_LAMBDA = 0.5  # taxi's weight on the user's own proportions


def rank_descending(probs: np.ndarray) -> np.ndarray:
    """Location indices by descending probability along the last axis, so
    one call ranks every row of a (Q, |L|) array; ties by ascending index."""
    return np.argsort(-probs, axis=-1, kind="stable")


class FrequencyRanker:
    """Counts-based destination ranking.

    top:   corpus-wide destination counts, descending; ties by index.
    u-top: the user's own counts first; unvisited locations follow in
           corpus-wide order.  Ties break by that order.
    taxi:  TAXI_LAMBDA * user proportion + (1 - TAXI_LAMBDA) * global
           proportion, with the same tie-break as u-top.
    """

    def __init__(self, kind: str = "top"):
        if kind not in FREQUENCY_KINDS:
            raise ContractViolation(f"unknown frequency ranker {kind!r}")
        self.kind = kind
        self.global_counts: np.ndarray | None = None
        self.user_counts: np.ndarray | None = None
        self.global_order: np.ndarray | None = None

    def fit(self, train: Corpus) -> "FrequencyRanker":
        n = train.n_locations
        self.global_counts = np.zeros(n, dtype=np.int64)
        self.user_counts = np.zeros((train.n_users, n), dtype=np.int64)
        for u, trips in enumerate(train.trips_by_user):
            for t in trips:
                self.global_counts[t.dest_loc] += 1
                self.user_counts[u, t.dest_loc] += 1
        self.global_order = np.argsort(-self.global_counts, kind="stable")
        return self

    def ranking(self, user: int | None = None) -> np.ndarray:
        if self.global_order is None:
            raise ContractViolation("ranker has not been fitted")
        if self.kind == "top" or user is None:
            return self.global_order.copy()
        uc = self.user_counts[user]
        if self.kind == "u-top":
            key = uc
        else:
            n = len(uc)
            u_total = uc.sum()
            g_total = self.global_counts.sum()
            u_prop = uc / u_total if u_total else np.zeros(n)
            g_prop = self.global_counts / g_total if g_total else np.zeros(n)
            key = TAXI_LAMBDA * u_prop + (1.0 - TAXI_LAMBDA) * g_prop
        # descending key; a stable sort of the corpus-wide order breaks ties by it
        order = self.global_order
        return order[np.argsort(-key[order], kind="stable")]

    def rank_user(self, user: int, queries) -> list[np.ndarray]:
        r = self.ranking(user)
        return [r for _ in queries]


ODLSTMConfig = TrainConfig  # od-lstm takes exactly the shared training fields


class ODLSTM:
    """One shared LSTM over the interleaved (origin, previous destination)
    input, read out through a linear-softmax layer.

    Training mirrors the attention model: one optimizer step per user on
    the mean cross-entropy of that user's examples.  At ranking time the
    hidden state carries on from the end of the training sequence through
    the test queries in order.
    """

    def __init__(self, config: TrainConfig, n_locations: int):
        if n_locations < 1:
            raise ContractViolation("need at least one location")
        self.config = config
        self.n_locations = n_locations
        specs = [
            ParamSpec("emb/loc", (n_locations, config.dim), embedding_init),
            *prefixed("lstm", lstm_spec(2 * config.dim, config.hdim)),
            ParamSpec("out/W_loc", (config.hdim, n_locations), glorot_uniform),
        ]
        self.params = draw_params(specs, np.random.default_rng(config.seed))
        self.lstm = scope(self.params, "lstm")
        self.loss_curve: list[float] = []
        self._final: list[tuple[np.ndarray, np.ndarray]] = []

    def _inputs(self, oseq: np.ndarray, dseq: np.ndarray) -> Tensor:
        """The LSTM input of a (T,) sequence, a constant for (B, T) rows."""
        emb = self.params["emb/loc"]
        return ag.concat([gather_input(emb, oseq), gather_input(emb, dseq)], axis=-1)

    def _loss(self, user: int, seqs: Sequences) -> Tensor:
        states, _, _ = lstm_encode(self.lstm, self._inputs(seqs.oseq, seqs.dseq))
        return ag.output_loss(states, self.params["out/W_loc"], seqs.targets)

    def fit(self, train: Corpus) -> list[float]:
        """Train in place, then store each user's final (h, c) after the
        training sequence (zeros below two trips); histories of equal
        length run through the LSTM together (`encode_by_length`)."""
        seqs = [encoder_sequences(trips) for trips in train.trips_by_user]
        usable = [(u, s) for u, s in enumerate(seqs) if s.targets.size]
        self.loss_curve = train_per_user(self.params, self.config, usable, self._loss, train.users)
        final = encode_by_length(
            seqs, lambda rows: lstm_encode(self.lstm, self._inputs(rows.oseq, rows.dseq))[1:]
        )
        self._final = [(h.copy(), c.copy()) for h, c in final]
        return self.loss_curve

    def rank_user(self, user: int, queries) -> list[np.ndarray]:
        """Rankings for one user's chronological test queries: one row of a
        row-axis encode from the user's final state, then arrays."""
        if not self._final:
            raise ContractViolation("model has not been fitted")
        if not queries:
            return []
        h0, c0 = self._final[user]
        oseq = np.array([q.origin for q in queries], dtype=np.int64)
        dseq = np.array([q.prev_dest for q in queries], dtype=np.int64)
        x = self._inputs(oseq[None], dseq[None])
        states, _, _ = lstm_encode(self.lstm, x, h0[None], c0[None])
        probs = softmax_rows(states.value[0] @ self.params["out/W_loc"].value)
        return list(rank_descending(probs))
