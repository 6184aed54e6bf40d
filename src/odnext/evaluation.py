"""Ranking metrics, the evaluation driver, cold-start scoring, and the one
way to train and score a method (`fit_ranker`, `study_seed`)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from .baselines import FREQUENCY_KINDS, FrequencyRanker, ODLSTM, rank_descending
from .data import (
    Corpus,
    IntervalTables,
    SplitResult,
    TrainingExample,
    Trip,
    Vocab,
    build_interval_tables,
    build_test_queries,
    build_vocab,
    chronological_split,
)
from .model import EncodedCache, Model, ModelConfig, VARIANTS
from .nn import ContractViolation, settings
from .synth import SynthConfig, generate

METHODS = VARIANTS + ("od-lstm",) + FREQUENCY_KINDS


def target_ranks(rankings: Sequence[np.ndarray], targets: Sequence[int]) -> np.ndarray:
    """0-based position of each query's target in its ranking, found once
    for every metric.  A ranking without its target is a contract breach."""
    if len(rankings) != len(targets):
        raise ContractViolation("rankings and targets differ in length")
    if not rankings:
        raise ContractViolation("cannot score an empty query set")
    ranks = np.empty(len(rankings), dtype=np.int64)
    for i, (r, t) in enumerate(zip(rankings, targets)):
        hit = r == t
        pos = int(hit.argmax()) if hit.size else -1  # the first hit
        if pos < 0 or not hit[pos]:
            raise ContractViolation(f"query {i}: target {t} is not in its ranking")
        ranks[i] = pos
    return ranks


def _accuracy(ranks: np.ndarray, k: int) -> float:
    return int(np.count_nonzero(ranks < k)) / len(ranks)


def _mean_reciprocal(ranks: np.ndarray) -> float:
    """MAP with a single relevant item per query: the mean of 1/rank."""
    total = 0.0
    for pos in ranks.tolist():  # summed in query order
        total += 1.0 / (pos + 1)
    return total / len(ranks)


@dataclass
class EvalReport:
    acc1: float
    acc5: float
    acc10: float
    map: float
    n_queries: int
    n_skipped: int = 0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class Ranker(Protocol):
    def rank_user(self, user: int, queries: list[TrainingExample]) -> list[np.ndarray]: ...


class ModelRanker:
    """Adapts a trained Model plus its EncodedCache to the Ranker protocol."""

    def __init__(self, model: Model, cache: EncodedCache):
        self.model = model
        self.cache = cache

    def rank_user(self, user: int, queries) -> list[np.ndarray]:
        if not queries:
            return []
        origins = [q.origin for q in queries]
        dprevs = [q.prev_dest for q in queries]
        probs = self.model.predict_batch(self.cache, user, origins, dprevs)
        return list(rank_descending(probs))


def evaluate(ranker: Ranker, queries_per_user: list[list[TrainingExample]]) -> EvalReport:
    """Score a ranker over chronological per-user test queries."""
    rankings: list[np.ndarray] = []
    targets: list[int] = []
    for user, queries in enumerate(queries_per_user):
        if not queries:
            continue
        results = ranker.rank_user(user, queries)
        if len(results) != len(queries):
            raise ContractViolation("ranker returned the wrong number of rankings")
        rankings.extend(results)
        targets.extend(q.target for q in queries)
    if not rankings:
        raise ContractViolation("no scorable queries")
    ranks = target_ranks(rankings, targets)
    return EvalReport(
        acc1=_accuracy(ranks, 1),
        acc5=_accuracy(ranks, 5),
        acc10=_accuracy(ranks, 10),
        map=_mean_reciprocal(ranks),
        n_queries=len(ranks),
    )


def mean_reports(reports: Sequence[EvalReport]) -> dict[str, float]:
    """Metric-wise mean over runs (for example over seeds)."""
    if not reports:
        raise ContractViolation("no reports to aggregate")
    return {
        key: float(np.mean([getattr(r, key) for r in reports]))
        for key in ("acc1", "acc5", "acc10", "map")
    }


def remap_user_trips(
    trips: list[Trip], source: Corpus, target_index: dict[str, int]
) -> list[Trip]:
    """Translate trips between corpora via location id strings.

    Trips touching a location absent from `target_index` are dropped.
    """
    out: list[Trip] = []
    for t in trips:
        o_id = source.locations[t.origin_loc].loc_id
        d_id = source.locations[t.dest_loc].loc_id
        if o_id in target_index and d_id in target_index:
            out.append(Trip(target_index[o_id], target_index[d_id], t.pickup_ts, t.dropoff_ts))
    return out


def cold_start_eval(
    model: Model,
    top_ranking: np.ndarray,
    cold_trips_by_user: list[list[Trip]],
) -> tuple[float, float, int]:
    """Top-1 accuracy of the model against the global-frequency baseline
    on users the model never trained on.

    Each user's trips must already be expressed in the model's location
    index space.  For trip j the model sees the full prior history as
    encoder context and queries with (origin_j, dest_{j-1}); the whole
    cohort goes to one `Model.predict_cold_cohort` call, and a user with
    fewer than two trips has no query.  Top-1 is the first maximal
    index, as in `rank_descending`.
    """
    model_hits = 0
    top_hits = 0
    n = 0
    for trips, probs in zip(cold_trips_by_user, model.predict_cold_cohort(cold_trips_by_user)):
        if len(trips) < 2:
            continue
        targets = np.array([t.dest_loc for t in trips[1:]], dtype=np.int64)
        model_hits += int(np.count_nonzero(probs.argmax(axis=1) == targets))
        top_hits += int(np.count_nonzero(targets == top_ranking[0]))
        n += len(targets)
    if n == 0:
        raise ContractViolation("no cold-start queries to score")
    return model_hits / n, top_hits / n, n


def prepare_split(
    corpus: Corpus, cfg: ModelConfig, train_ratio: float
) -> tuple[SplitResult, Vocab, IntervalTables]:
    """Chronological split; vocabulary over the corpus, tables over its training part."""
    split = chronological_split(corpus, train_ratio)
    vocab = build_vocab(corpus, cfg.geohash_precision)
    return split, vocab, build_interval_tables(split.train)


def fit_ranker(
    method: str, cfg: ModelConfig, split: SplitResult, vocab: Vocab, tables: IntervalTables
) -> Ranker:
    """Train one of METHODS on the split's training part; return its ranker.

    A model variant trains `cfg` with that variant and ranks from its
    encoder cache; "od-lstm" trains with `cfg`'s training fields (the
    `TrainConfig` part); a frequency kind only counts destinations.
    """
    train = split.train
    if method in VARIANTS:
        model = Model(replace(cfg, variant=method), vocab, tables)
        model.fit(train)
        return ModelRanker(model, model.build_cache(train))
    if method == "od-lstm":
        od = ODLSTM(cfg, vocab.n_locations)
        od.fit(train)
        return od
    if method in FREQUENCY_KINDS:
        return FrequencyRanker(method).fit(train)
    raise ContractViolation(f"unknown method {method!r}; choose from {METHODS}")


# The synthetic study's profile, shared by the acceptance criteria and
# `odnext study`; a study seed replaces both `seed`s.
STUDY_SYNTH = SynthConfig(
    n_users=200,
    n_locations=60,
    n_clusters=6,
    trips_per_user=30,
    p_noise=0.1,
    n_cold_users=50,
    n_user_types=250,
    day_half_adherence=0.95,
    rule_member_pool=2,
)
STUDY_MODEL = ModelConfig(dim=32, hdim=32, lr=1e-3, epochs=15, attention_context="causal")


@dataclass
class Study:
    """One seed of the synthetic study: its data, rankers and reports."""

    corpus: Corpus  # the main users, without the cold block
    split: SplitResult
    queries: list[list[TrainingExample]]
    rankers: dict[str, Ranker]
    reports: dict[str, EvalReport]
    oracle_accuracy: float
    cold: tuple[float, float, int] | None  # `cold_start_eval`; None without cold queries


def study_seed(synth_cfg: SynthConfig, model_cfg: ModelConfig, methods: Sequence[str]) -> Study:
    """Generate the synthetic corpus, hold out its cold users, split 70/30,
    then train and score every method on the same test queries, and score
    the cold users with stod-ppa against top (`methods` names both)."""
    full, manifest = generate(synth_cfg)
    n = synth_cfg.n_users
    corpus = Corpus(full.locations, full.users[:n], full.trips_by_user[:n])
    split, vocab, tables = prepare_split(corpus, model_cfg, 0.7)
    queries = build_test_queries(split)
    rankers = {m: fit_ranker(m, model_cfg, split, vocab, tables) for m in methods}
    reports = {m: evaluate(r, queries) for m, r in rankers.items()}
    cold_trips = full.trips_by_user[n:]
    cold = None
    if any(len(trips) > 1 for trips in cold_trips):  # a user's first trip is no query
        cold = cold_start_eval(rankers["stod-ppa"].model, rankers["top"].ranking(), cold_trips)
    return Study(corpus, split, queries, rankers, reports, manifest["oracle_accuracy"], cold)


SWEEPABLE_FIELDS = ("dim", "hdim", "lr", "epochs")


def sensitivity_sweep(
    base: ModelConfig,
    param: str,
    values: Sequence,
    split: SplitResult,
    vocab,
    tables,
) -> list[tuple[float, EvalReport]]:
    """Retrain with one hyperparameter varied; evaluate each setting."""
    if param not in SWEEPABLE_FIELDS:
        raise ContractViolation(
            f"cannot sweep {param!r}; choose one of {SWEEPABLE_FIELDS}"
        )
    kind = settings(type(base))[param][0]  # a whole number reads as an int where declared
    configs = [
        replace(base, **{param: int(v) if kind == "int" and float(v).is_integer() else v})
        for v in values
    ]
    queries = build_test_queries(split)
    return [
        (float(v), evaluate(fit_ranker(cfg.variant, cfg, split, vocab, tables), queries))
        for v, cfg in zip(values, configs)
    ]
