"""Baselines: destination-frequency rankers and a single-LSTM recommender."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Corpus, Trip, build_encoder_sequences
from .nn import (
    ContractViolation,
    ParamSpec,
    draw_params,
    embedding_init,
    glorot_uniform,
    prefixed,
    train_per_user,
)
from .stlstm import LSTMWeights, lstm_encode, lstm_spec

FREQUENCY_KINDS = ("top", "u-top", "taxi")


class FrequencyRanker:
    """Counts-based destination ranking.

    top:   global destination counts, descending; ties by index.
    u-top: the user's own counts first; unvisited locations follow in
           global order.  Ties break by global position, then index.
    taxi:  lam * user proportion + (1 - lam) * global proportion, with
           the same tie-break as u-top.
    """

    def __init__(self, kind: str = "top", lam: float = 0.5):
        if kind not in FREQUENCY_KINDS:
            raise ContractViolation(f"unknown frequency ranker {kind!r}")
        if not 0.0 <= lam <= 1.0:
            raise ContractViolation("lam must lie in [0, 1]")
        self.kind = kind
        self.lam = lam
        self.global_counts: np.ndarray | None = None
        self.user_counts: np.ndarray | None = None
        self.global_order: np.ndarray | None = None
        self.global_pos: np.ndarray | None = None

    def fit(self, train: Corpus) -> "FrequencyRanker":
        n = train.n_locations
        self.global_counts = np.zeros(n, dtype=np.int64)
        self.user_counts = np.zeros((train.n_users, n), dtype=np.int64)
        for u, trips in enumerate(train.trips_by_user):
            for t in trips:
                self.global_counts[t.dest_loc] += 1
                self.user_counts[u, t.dest_loc] += 1
        order = sorted(range(n), key=lambda l: (-self.global_counts[l], l))
        self.global_order = np.array(order, dtype=np.int64)
        self.global_pos = np.empty(n, dtype=np.int64)
        self.global_pos[self.global_order] = np.arange(n)
        return self

    def ranking(self, user: int | None = None) -> np.ndarray:
        if self.global_order is None:
            raise ContractViolation("ranker has not been fitted")
        if self.kind == "top" or user is None:
            return self.global_order.copy()
        n = len(self.global_order)
        uc = self.user_counts[user]
        if self.kind == "u-top":
            keys = list(zip(-uc, self.global_pos, range(n)))
        else:
            u_total = uc.sum()
            g_total = self.global_counts.sum()
            u_prop = uc / u_total if u_total else np.zeros(n)
            g_prop = self.global_counts / g_total if g_total else np.zeros(n)
            score = self.lam * u_prop + (1.0 - self.lam) * g_prop
            keys = list(zip(-score, self.global_pos, range(n)))
        return np.array(sorted(range(n), key=lambda l: keys[l]), dtype=np.int64)

    def rank_user(self, user: int, queries) -> list[np.ndarray]:
        r = self.ranking(user)
        return [r for _ in queries]


@dataclass(frozen=True)
class ODLSTMConfig:
    dim: int = 256
    hdim: int = 256
    lr: float = 1e-4
    epochs: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.hdim < 1:
            raise ContractViolation("dim and hdim must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractViolation("lr must be positive and finite")
        if self.epochs < 0:
            raise ContractViolation("epochs must be non-negative")


class ODLSTM:
    """One shared LSTM over the interleaved (origin, previous destination)
    input, read out through a linear-softmax layer.

    Training mirrors the attention model: one optimizer step per user on
    the mean cross-entropy of that user's examples.  At ranking time the
    hidden state carries on from the end of the training sequence through
    the test queries in order.
    """

    def __init__(self, config: ODLSTMConfig, n_locations: int):
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
        self.lstm = LSTMWeights.from_params(self.params, "lstm")
        self.loss_curve: list[float] = []
        self._final: list[tuple[np.ndarray, np.ndarray]] = []

    def _inputs(self, oseq: np.ndarray, dseq: np.ndarray) -> Tensor:
        emb = self.params["emb/loc"]
        return ag.concat([ag.take_rows(emb, oseq), ag.take_rows(emb, dseq)], axis=1)

    def user_loss(self, user: int, trips: list[Trip]) -> Tensor:
        if len(trips) < 2:
            raise ContractViolation("a user needs at least two trips to train on")
        oseq, dseq = (np.array(s, dtype=np.int64) for s in build_encoder_sequences(trips))
        targets = np.array([t.dest_loc for t in trips[1:]], dtype=np.int64)
        states, _, _ = lstm_encode(self.lstm, self._inputs(oseq, dseq))
        logits = ag.matmul(states, self.params["out/W_loc"])
        return ag.mean_cross_entropy(logits, targets)

    def fit(self, train: Corpus) -> list[float]:
        usable = [
            (u, trips) for u, trips in enumerate(train.trips_by_user) if len(trips) >= 2
        ]
        c = self.config
        self.loss_curve = train_per_user(
            self.params, c.lr, c.seed, c.epochs, usable, self.user_loss, train.users
        )
        self._freeze_states(train)
        return self.loss_curve

    def _freeze_states(self, train: Corpus) -> None:
        """Store each user's final (h, c) after the training sequence."""
        self._final = []
        hidden = self.config.hdim
        with ag.no_grad():
            for trips in train.trips_by_user:
                if len(trips) < 2:
                    self._final.append((np.zeros(hidden), np.zeros(hidden)))
                    continue
                oseq, dseq = (np.array(s, dtype=np.int64) for s in build_encoder_sequences(trips))
                _, h, c = lstm_encode(self.lstm, self._inputs(oseq, dseq))
                self._final.append((h.value.copy(), c.value.copy()))

    def rank_user(self, user: int, queries) -> list[np.ndarray]:
        """Rankings for one user's chronological test queries."""
        if not self._final:
            raise ContractViolation("model has not been fitted")
        if not queries:
            return []
        h0, c0 = self._final[user]
        oseq = np.array([q.origin for q in queries], dtype=np.int64)
        dseq = np.array([q.prev_dest for q in queries], dtype=np.int64)
        with ag.no_grad():
            states, _, _ = lstm_encode(
                self.lstm, self._inputs(oseq, dseq), ag.constant(h0), ag.constant(c0)
            )
            logits = ag.matmul(states, self.params["out/W_loc"])
            probs = ag.softmax(logits, axis=1).value
        return [np.argsort(-row, kind="stable") for row in probs]
