"""Metrics against brute-force oracles; the evaluation driver."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import random_corpus
from odnext.baselines import FrequencyRanker, ODLSTM, ODLSTMConfig
from odnext.data import TrainingExample, build_test_queries, chronological_split
from odnext.evaluation import (
    METHODS,
    EvalReport,
    ModelRanker,
    evaluate,
    fit_ranker,
    mean_reports,
    prepare_split,
    rank_descending,
    remap_user_trips,
    sensitivity_sweep,
    target_ranks,
)
from odnext.model import VARIANTS, Model, ModelConfig
from odnext.nn import ContractViolation


def brute_acc_at_k(rankings, targets, k):
    return np.mean([1.0 if t in list(r)[:k] else 0.0 for r, t in zip(rankings, targets)])


def brute_map(rankings, targets):
    return np.mean([1.0 / (list(r).index(t) + 1) for r, t in zip(rankings, targets)])


def random_cases(seed, n_cases=100):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 8))
        rankings = [rng.permutation(n) for _ in range(m)]
        targets = [int(rng.integers(0, n)) for _ in range(m)]
        yield rankings, targets


def evaluated(rankings, targets) -> EvalReport:
    """`evaluate` over one user whose stub ranker returns `rankings`."""
    return evaluate(_FixedRanker([list(rankings)]), [[_q(t) for t in targets]])


def oracle_mismatches(rankings, targets) -> list[str]:
    """The metrics of the program's path that differ from the brute-force
    oracles: acc@k from `target_ranks` for k = 1, 2, 5, 10, and the acc@1/5/10
    and MAP of `evaluate`."""
    ranks = target_ranks(rankings, targets)
    report = evaluated(rankings, targets)
    checks = [
        (f"target_ranks acc@{k}", np.count_nonzero(ranks < k) / len(ranks), k)
        for k in (1, 2, 5, 10)
    ]
    checks += [(f"evaluate acc{k}", getattr(report, f"acc{k}"), k) for k in (1, 5, 10)]
    bad = [name for name, got, k in checks if got != brute_acc_at_k(rankings, targets, k)]
    if report.map != brute_map(rankings, targets):
        bad.append("evaluate map")
    return bad


class TestRanking:
    def test_descending_with_index_ties(self):
        probs = np.array([0.2, 0.5, 0.2, 0.1])
        np.testing.assert_array_equal(rank_descending(probs), [1, 0, 2, 3])

    def test_all_equal_is_identity(self):
        np.testing.assert_array_equal(rank_descending(np.ones(5)), np.arange(5))

    @given(st.integers(min_value=0, max_value=10**9))
    def test_permutation_and_sortedness(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(20)
        r = rank_descending(probs)
        assert sorted(r.tolist()) == list(range(20))
        assert all(probs[r[i]] >= probs[r[i + 1]] for i in range(19))

    @given(st.integers(min_value=0, max_value=10**9))
    def test_model_ranker_ranks_each_row_as_rank_descending(self, seed):
        # probabilities on a coarse grid, so most rows hold ties
        rng = np.random.default_rng(seed)
        probs = rng.integers(0, 4, size=(int(rng.integers(1, 7)), 9)) / 4.0
        ranker = ModelRanker(_FixedProbs(probs), cache=None)
        rows = ranker.rank_user(0, [_q(0)] * len(probs))
        assert len(rows) == len(probs)
        for got, p in zip(rows, probs):
            np.testing.assert_array_equal(got, rank_descending(p))


class TestMetrics:
    def test_matches_brute_force_on_random_cases(self):
        for rankings, targets in random_cases(7):
            assert oracle_mismatches(rankings, targets) == []

    def test_single_query_map_is_reciprocal_rank(self):
        ranking = np.array([3, 0, 4, 1, 2])
        for r, target in enumerate([3, 0, 4, 1, 2], start=1):
            assert evaluated([ranking], [target]).map == 1.0 / r

    def test_acc_at_one_is_exact_top_hit(self):
        assert evaluated([np.array([2, 0, 1])], [2]).acc1 == 1.0
        assert evaluated([np.array([2, 0, 1])], [0]).acc1 == 0.0

    def test_target_ranks_are_first_positions(self):
        for rankings, targets in random_cases(8):
            want = [list(r).index(t) for r, t in zip(rankings, targets)]
            assert target_ranks(rankings, targets).tolist() == want

    def test_ranking_without_its_target_raises_and_names_the_query(self):
        rankings = [np.array([2, 0, 1]), np.array([0, 1]), np.array([], dtype=np.int64)]
        for scorer in (target_ranks, evaluated):
            with pytest.raises(ContractViolation, match="query 1: target 2 "):
                scorer(rankings[:2], [1, 2])
            with pytest.raises(ContractViolation, match="query 2: target 0 "):
                scorer(rankings, [1, 0, 0])
        with pytest.raises(ContractViolation, match="query 1"):
            evaluate(_FixedRanker([[np.array([0, 1]), np.array([1, 0])]]), [[_q(0), _q(5)]])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ContractViolation, match="empty query set"):
            target_ranks([], [])
        with pytest.raises(ContractViolation, match="differ in length"):
            target_ranks([np.arange(3)], [0, 1])


class _FixedRanker:
    """Returns canned rankings."""

    def __init__(self, rows):
        self.rows = rows

    def rank_user(self, user, queries):
        return self.rows[user]


class _FixedProbs:
    """Stands in for a Model: every predict_batch returns the same rows."""

    def __init__(self, probs):
        self.probs = probs

    def predict_batch(self, cache, user, origins, dprevs):
        return self.probs


def _q(target):
    return TrainingExample(user=0, origin=0, prev_dest=0, target=target)


class TestEvaluateDriver:
    def test_aggregates_across_users(self):
        rows = [
            [np.array([1, 0, 2]), np.array([0, 1, 2])],
            [np.array([2, 1, 0])],
        ]
        queries = [[_q(1), _q(2)], [_q(2)]]
        report = evaluate(_FixedRanker(rows), queries)
        assert report.n_queries == 3
        assert report.acc1 == pytest.approx(2 / 3)
        assert report.map == pytest.approx((1 + 1 / 3 + 1) / 3)

    def test_no_queries_raises(self):
        with pytest.raises(ContractViolation, match="no scorable queries"):
            evaluate(_FixedRanker([[], []]), [[], []])

    def test_wrong_cardinality_raises(self):
        with pytest.raises(ContractViolation):
            evaluate(_FixedRanker([[np.array([0, 1])]]), [[_q(0), _q(1)]])

    def test_empty_user_lists_are_ignored(self):
        rows = [[], [np.array([0, 1])]]
        report = evaluate(_FixedRanker(rows), [[], [_q(0)]])
        assert report.n_queries == 1


class TestAggregation:
    def test_mean_reports(self):
        a = EvalReport(acc1=0.5, acc5=0.8, acc10=0.9, map=0.6, n_queries=10)
        b = EvalReport(acc1=0.7, acc5=0.6, acc10=1.0, map=0.8, n_queries=20)
        out = mean_reports([a, b])
        assert out["acc1"] == pytest.approx(0.6)
        assert out["map"] == pytest.approx(0.7)

    def test_empty_raises(self):
        with pytest.raises(ContractViolation):
            mean_reports([])


class TestRemap:
    def test_translates_and_drops(self):
        corpus = random_corpus(3, n_users=3, n_locations=5, min_trips=3, max_trips=5)
        # target index reverses locations and forgets loc_id "L000"
        target_index = {
            rec.loc_id: corpus.n_locations - 1 - i
            for i, rec in enumerate(corpus.locations)
            if rec.loc_id != "L000"
        }
        trips = corpus.trips_by_user[0]
        out = remap_user_trips(trips, corpus, target_index)
        kept = [
            t
            for t in trips
            if corpus.locations[t.origin_loc].loc_id in target_index
            and corpus.locations[t.dest_loc].loc_id in target_index
        ]
        assert len(out) == len(kept)
        for got, src in zip(out, kept):
            assert got.origin_loc == target_index[corpus.locations[src.origin_loc].loc_id]
            assert got.dest_loc == target_index[corpus.locations[src.dest_loc].loc_id]
            assert (got.pickup_ts, got.dropoff_ts) == (src.pickup_ts, src.dropoff_ts)


class TestSweep:
    def test_rejects_unknown_field(self):
        with pytest.raises(ContractViolation):
            sensitivity_sweep(ModelConfig(), "leaky_slope", [0.1], None, None, None)

    def test_varies_one_field_and_scores(self):
        from odnext.data import build_interval_tables, build_vocab

        corpus = random_corpus(11, n_users=5, n_locations=6, min_trips=6, max_trips=9)
        split = chronological_split(corpus, 0.7)
        vocab = build_vocab(corpus)
        tables = build_interval_tables(split.train)
        base = ModelConfig(dim=4, hdim=5, lr=1e-2, epochs=1, seed=0)
        out = sensitivity_sweep(base, "epochs", [0, 1], split, vocab, tables)
        assert [v for v, _ in out] == [0.0, 1.0]
        for _, report in out:
            assert isinstance(report, EvalReport)
            assert report.n_queries > 0


class TestFitRanker:
    CFG = ModelConfig(dim=4, hdim=5, lr=1e-2, epochs=2, seed=3)

    @pytest.fixture(scope="class")
    def world(self):
        corpus = random_corpus(21, n_users=5, n_locations=7, min_trips=5, max_trips=9)
        split, vocab, tables = prepare_split(corpus, self.CFG, 0.7)
        return split, vocab, tables, build_test_queries(split)

    def hand_built(self, method, split, vocab, tables):
        if method in VARIANTS:
            m = Model(replace(self.CFG, variant=method), vocab, tables)
            m.fit(split.train)
            return ModelRanker(m, m.build_cache(split.train))
        if method == "od-lstm":
            c = self.CFG
            od = ODLSTM(
                ODLSTMConfig(dim=c.dim, hdim=c.hdim, lr=c.lr, epochs=c.epochs, seed=c.seed),
                split.train.n_locations,
            )
            od.fit(split.train)
            return od
        return FrequencyRanker(method).fit(split.train)

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_the_hand_built_ranker(self, world, method):
        split, vocab, tables, queries = world
        got = fit_ranker(method, self.CFG, split, vocab, tables)
        want = self.hand_built(method, split, vocab, tables)
        n = 0
        for u, qs in enumerate(queries):
            for a, b in zip(got.rank_user(u, qs), want.rank_user(u, qs)):
                np.testing.assert_array_equal(a, b)
                n += 1
        assert n > 0

    def test_unknown_method(self, world):
        split, vocab, tables, _ = world
        with pytest.raises(ContractViolation, match="frobnicate"):
            fit_ranker("frobnicate", self.CFG, split, vocab, tables)
