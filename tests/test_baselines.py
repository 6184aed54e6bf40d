"""Frequency rankers against a counting oracle; the sequence baseline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import odnext.autograd as ag
import reference as ref
from odnext import baselines
from helpers import random_corpus
from odnext.baselines import FREQUENCY_KINDS, FrequencyRanker, ODLSTM, ODLSTMConfig
from odnext.data import build_test_queries, chain_queries, chronological_split, encoder_sequences
from odnext.nn import ContractViolation
from odnext.stlstm import lstm_encode


def oracle_rankings(corpus, lam=0.5):
    """Brute-force counts -> {kind: {user: ranking}} with documented ties."""
    n = corpus.n_locations
    g = np.zeros(n)
    per_user = np.zeros((corpus.n_users, n))
    for u, trips in enumerate(corpus.trips_by_user):
        for t in trips:
            g[t.dest_loc] += 1
            per_user[u, t.dest_loc] += 1
    top = sorted(range(n), key=lambda l: (-g[l], l))
    pos = {l: r for r, l in enumerate(top)}
    out = {"top": top, "u-top": {}, "taxi": {}}
    for u in range(corpus.n_users):
        uc = per_user[u]
        out["u-top"][u] = sorted(range(n), key=lambda l: (-uc[l], pos[l], l))
        u_prop = uc / uc.sum() if uc.sum() else np.zeros(n)
        g_prop = g / g.sum() if g.sum() else np.zeros(n)
        score = lam * u_prop + (1 - lam) * g_prop
        out["taxi"][u] = sorted(range(n), key=lambda l: (-score[l], pos[l], l))
    return out


class TestFrequencyRanker:
    def test_rejects_bad_kind(self):
        with pytest.raises(ContractViolation):
            FrequencyRanker("mode")

    def test_unfitted_raises(self):
        with pytest.raises(ContractViolation):
            FrequencyRanker("top").ranking()

    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_counting_oracle(self, seed):
        corpus = random_corpus(seed)
        expect = oracle_rankings(corpus)
        top = FrequencyRanker("top").fit(corpus)
        utop = FrequencyRanker("u-top").fit(corpus)
        taxi = FrequencyRanker("taxi").fit(corpus)
        assert top.ranking().tolist() == expect["top"]
        for u in range(corpus.n_users):
            assert utop.ranking(u).tolist() == expect["u-top"][u]
            assert taxi.ranking(u).tolist() == expect["taxi"][u]

    @given(st.integers(min_value=0, max_value=10**9))
    def test_rankings_are_permutations(self, seed):
        corpus = random_corpus(seed)
        for kind in FREQUENCY_KINDS:
            r = FrequencyRanker(kind).fit(corpus).ranking(0)
            assert sorted(r.tolist()) == list(range(corpus.n_locations))

    @given(st.integers(min_value=0, max_value=10**9))
    def test_taxi_extremes_reduce_to_neighbours(self, seed):
        corpus = random_corpus(seed)
        taxi = FrequencyRanker("taxi").fit(corpus)
        utop = FrequencyRanker("u-top").fit(corpus)
        top = FrequencyRanker("top").fit(corpus)
        for u in range(corpus.n_users):
            with mock.patch.object(baselines, "TAXI_LAMBDA", 1.0):
                np.testing.assert_array_equal(taxi.ranking(u), utop.ranking(u))
            with mock.patch.object(baselines, "TAXI_LAMBDA", 0.0):
                np.testing.assert_array_equal(taxi.ranking(u), top.ranking(u))

    def test_personal_kind_without_user_falls_back_to_global(self):
        corpus = random_corpus(1)
        r = FrequencyRanker("u-top").fit(corpus)
        np.testing.assert_array_equal(r.ranking(None), FrequencyRanker("top").fit(corpus).ranking())

    def test_hand_computed_counts(self):
        from helpers import corpus_from

        rows = [(0, 0, 2, 0, 1), (0, 0, 2, 2, 3), (0, 1, 0, 4, 5), (1, 1, 2, 0, 1)]
        corpus = corpus_from(rows, 4)
        top = FrequencyRanker("top").fit(corpus)
        # dest counts: loc0=1, loc2=3, others 0 -> [2, 0, 1, 3] with index ties
        assert top.ranking().tolist() == [2, 0, 1, 3]
        utop = FrequencyRanker("u-top").fit(corpus)
        # user 1 visited only loc2; the rest follow global order
        assert utop.ranking(1).tolist() == [2, 0, 1, 3]
        assert utop.ranking(0).tolist() == [2, 0, 1, 3]

    def test_rank_user_repeats_ranking(self):
        corpus = random_corpus(4)
        r = FrequencyRanker("u-top").fit(corpus)
        queries = [object(), object(), object()]
        out = r.rank_user(1, queries)
        assert len(out) == 3
        for row in out:
            np.testing.assert_array_equal(row, r.ranking(1))


@pytest.fixture(scope="module")
def od_world():
    corpus = random_corpus(21, n_users=6, n_locations=7, min_trips=6, max_trips=10)
    split = chronological_split(corpus, 0.7)
    return corpus, split


class TestODLSTM:
    def test_initial_loss_near_uniform(self, od_world):
        corpus, split = od_world
        m = ODLSTM(ODLSTMConfig(dim=5, hdim=6, seed=0), corpus.n_locations)
        loss = m._loss(0, encoder_sequences(split.train.trips_by_user[0])).item()
        assert loss == pytest.approx(np.log(corpus.n_locations), rel=0.2)

    @pytest.mark.parametrize(
        "kw", [{"dim": 0}, {"hdim": 0}, {"lr": 0.0}, {"lr": float("nan")},
               {"lr": float("inf")}, {"epochs": -1}]
    )
    def test_config_rejects_bad_numbers(self, kw):
        with pytest.raises(ContractViolation):
            ODLSTMConfig(**kw)

    def test_non_finite_loss_stops_before_any_update(self, od_world):
        corpus, split = od_world
        m = ODLSTM(ODLSTMConfig(dim=5, hdim=6, lr=1e-2, epochs=2), corpus.n_locations)
        m.params["lstm/U_h"].value[0, 0] = np.nan
        before = {k: p.value.copy() for k, p in m.params.items()}
        with pytest.raises(ContractViolation, match="epoch 1, user ") as err:
            m.fit(split.train)
        assert any(repr(u) in str(err.value) for u in corpus.users)
        for k, p in m.params.items():
            np.testing.assert_array_equal(p.value, before[k])

    def test_fit_decreases_loss_and_is_deterministic(self, od_world):
        corpus, split = od_world
        cfg = ODLSTMConfig(dim=5, hdim=6, lr=1e-2, epochs=3, seed=2)
        a = ODLSTM(cfg, corpus.n_locations)
        b = ODLSTM(cfg, corpus.n_locations)
        curve_a = a.fit(split.train)
        curve_b = b.fit(split.train)
        assert curve_a == curve_b
        assert curve_a[-1] < curve_a[0]
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].value, b.params[k].value)

    def test_rank_user_continues_the_recurrence(self, od_world):
        # Encoding train+test in one pass must equal the query-time
        # continuation from the frozen state (telescoping inputs).
        corpus, split = od_world
        m = ODLSTM(ODLSTMConfig(dim=5, hdim=6, lr=1e-2, epochs=2, seed=3), corpus.n_locations)
        m.fit(split.train)
        queries_all = build_test_queries(split)
        user = 0
        queries = queries_all[user]
        assert queries, "fixture needs a user with test trips"
        rankings = m.rank_user(user, queries)

        full = corpus.trips_by_user[user]
        oseq = np.array([t.origin_loc for t in full[1:]])
        dseq = np.array([t.dest_loc for t in full[:-1]])
        states, _, _ = lstm_encode(m.lstm, m._inputs(oseq, dseq))
        logits = ag.matmul(states, m.params["out/W_loc"])
        probs = ref.softmax(logits, axis=1).value
        n_train = len(split.train.trips_by_user[user])
        for k, q in enumerate(queries):
            row = probs[n_train - 1 + k]
            np.testing.assert_array_equal(rankings[k], np.argsort(-row, kind="stable"))

    def test_rank_before_fit_raises(self, od_world):
        corpus, _ = od_world
        m = ODLSTM(ODLSTMConfig(dim=4, hdim=4), corpus.n_locations)
        with pytest.raises(ContractViolation):
            trips = corpus.trips_by_user[0]
            m.rank_user(0, chain_queries(0, trips[0].dest_loc, trips[1:2]))

    def test_empty_queries(self, od_world):
        corpus, split = od_world
        m = ODLSTM(ODLSTMConfig(dim=4, hdim=4, epochs=1), corpus.n_locations)
        m.fit(split.train)
        assert m.rank_user(0, []) == []

    def test_rankings_are_permutations(self, od_world):
        corpus, split = od_world
        m = ODLSTM(ODLSTMConfig(dim=4, hdim=4, epochs=1, lr=1e-2), corpus.n_locations)
        m.fit(split.train)
        for u, queries in enumerate(build_test_queries(split)):
            for r in m.rank_user(u, queries):
                assert sorted(r.tolist()) == list(range(corpus.n_locations))
