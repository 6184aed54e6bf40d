"""Batched cold start against the per-prefix reference, for every variant.

`Model.predict_cold_cohort` encodes each cold user's history once,
equal-length histories together, and decodes every query under the
causal mask; `cold_start_eval` scores the whole cohort with one such
call.  The reference below is the per-query loop: one
`predict_cold` over the full prefix for each trip, ranked with
`rank_descending`.
"""

import dataclasses

import numpy as np
import pytest

import odnext.autograd as ag
from odnext.baselines import ODLSTM, ODLSTMConfig
from odnext.data import (
    Corpus,
    build_interval_tables,
    build_vocab,
    chain_queries,
    encoder_sequences,
)
from odnext.evaluation import ModelRanker, cold_start_eval, evaluate, rank_descending
from odnext.model import VARIANTS, ColdStartError, Model, ModelConfig
from odnext.nn import ContractViolation
from odnext.synth import SynthConfig, generate

N_MAIN = 10


@pytest.fixture(scope="module")
def world():
    full, _ = generate(
        SynthConfig(
            n_users=N_MAIN,
            n_locations=12,
            n_clusters=3,
            trips_per_user=40,
            seed=5,
            n_cold_users=6,
            cold_trips_min=1,
            cold_trips_max=9,
        )
    )
    corpus = Corpus(full.locations, full.users[:N_MAIN], full.trips_by_user[:N_MAIN])
    return corpus, full.trips_by_user[N_MAIN:]


@pytest.fixture(scope="module", params=VARIANTS)
def model(request, world):
    corpus, _ = world
    cfg = ModelConfig(
        dim=6, hdim=8, lr=1e-2, epochs=2, seed=1, variant=request.param, utc_offset_hours=-5
    )
    m = Model(cfg, build_vocab(corpus), build_interval_tables(corpus))
    m.fit(corpus)
    return m


def reference_rows(model, trips):
    return np.array(
        [
            model.predict_cold(trips[:j], trips[j].origin_loc, trips[j - 1].dest_loc)
            for j in range(1, len(trips))
        ]
    )


def reference_eval(model, top_ranking, cold):
    model_hits = top_hits = n = 0
    for trips in cold:
        for j, probs in enumerate(reference_rows(model, trips), start=1):
            target = trips[j].dest_loc
            model_hits += int(rank_descending(probs)[0] == target)
            top_hits += int(top_ranking[0] == target)
            n += 1
    if n == 0:
        raise ContractViolation("no cold-start queries to score")
    return model_hits / n, top_hits / n, n


def assert_matches_reference(model, trips):
    rows = model.predict_cold_cohort([trips])[0]
    ref = reference_rows(model, trips)
    assert rows.shape == (len(trips) - 1, model.vocab.n_locations)
    np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(rows.argmax(axis=1), [rank_descending(p)[0] for p in ref])


def test_history_rows_match_per_prefix(model, world):
    _, cold = world
    for trips in cold:
        if len(trips) >= 2:
            assert_matches_reference(model, trips)


def test_forty_trip_user_matches(model, world):
    corpus, _ = world
    trips = corpus.trips_by_user[0]
    assert len(trips) == 40
    assert_matches_reference(model, trips)


def test_eval_triple_identical(model, world):
    corpus, cold = world
    top = np.random.default_rng(0).permutation(model.vocab.n_locations)
    cohort = cold + [corpus.trips_by_user[1]]
    assert cold_start_eval(model, top, cohort) == reference_eval(model, top, cohort)


def test_one_trip_user_adds_no_query(model, world):
    _, cold = world
    trips = next(t for t in cold if len(t) >= 2)
    top = np.arange(model.vocab.n_locations)
    alone = cold_start_eval(model, top, [trips])
    assert cold_start_eval(model, top, [trips[:1], trips, []]) == alone
    assert alone[2] == len(trips) - 1
    with pytest.raises(ContractViolation):
        cold_start_eval(model, top, [trips[:1], []])


@pytest.mark.parametrize("field", ["origin_loc", "dest_loc"])
def test_out_of_range_location_raises(model, world, field):
    _, cold = world
    trips = list(next(t for t in cold if len(t) >= 3))
    trips[1] = dataclasses.replace(trips[1], **{field: model.vocab.n_locations})
    with pytest.raises(ContractViolation):
        model.predict_cold_cohort([trips])
    with pytest.raises(ContractViolation):
        cold_start_eval(model, np.arange(model.vocab.n_locations), [trips])


@pytest.mark.parametrize("dest", ["n_locations", -1])
def test_out_of_range_last_destination_raises(model, world, dest):
    """A history's last destination is a target that no encode reads, and
    it is range-checked all the same."""
    _, cold = world
    trips = list(next(t for t in cold if len(t) >= 2))
    dest = model.vocab.n_locations if dest == "n_locations" else dest
    trips[-1] = dataclasses.replace(trips[-1], dest_loc=dest)
    with pytest.raises(ContractViolation, match="location index out of range"):
        model.predict_cold_cohort([trips])
    with pytest.raises(ContractViolation, match="location index out of range"):
        cold_start_eval(model, np.arange(model.vocab.n_locations), [trips])


def test_tape_stays_empty(model, world, monkeypatch):
    """No off-tape entry point records a node or touches a gradient, with
    no mode switched: the cache build, cached prediction and attention,
    evaluation over the cache, one cold query, the cohort path (a refused
    cohort included) and its scorer, and the od-lstm's ranking."""
    corpus, cold = world
    od = ODLSTM(ODLSTMConfig(dim=4, hdim=5, lr=1e-2, epochs=1, seed=2), corpus.n_locations)
    od.fit(corpus)
    cache = model.build_cache(corpus)
    taped = []
    init = ag.Tensor.__init__

    def recording_init(self, value, requires_grad=False, parents=(), backward=None):
        init(self, value, requires_grad, parents, backward)
        if parents:
            taped.append(self)

    monkeypatch.setattr(ag.Tensor, "__init__", recording_init)
    trips = next(t for t in cold if len(t) >= 3)
    refused = list(trips)
    refused[1] = dataclasses.replace(refused[1], origin_loc=model.vocab.n_locations)
    top = np.arange(model.vocab.n_locations)
    queries = [chain_queries(u, t[-1].dest_loc, t[:3]) for u, t in enumerate(corpus.trips_by_user)]

    def refuse_cohort():
        with pytest.raises(ContractViolation):
            model.predict_cold_cohort(cold + [refused])

    params = [*model.params.values(), *od.params.values()]
    grads = [p.grad.copy() for p in params]
    paths = [
        lambda: model.build_cache(corpus),
        lambda: model.predict_batch(cache, 1, [0, 2], [1, 1]),
        lambda: evaluate(ModelRanker(model, cache), queries),
        lambda: model.predict_cold(trips[:2], trips[2].origin_loc, trips[1].dest_loc),
        lambda: model.predict_cold_cohort([trips]),
        lambda: model.predict_cold_cohort(cold + corpus.trips_by_user),
        refuse_cohort,
        lambda: cold_start_eval(model, top, cold),
        lambda: od.rank_user(1, queries[1]),
    ]
    if model.config.variant != "encoder-only":
        paths.append(lambda: model.attention(cache, 1, 0, 1))
    for path in paths:
        path()
        assert taped == []
        for p, g in zip(params, grads, strict=True):
            np.testing.assert_array_equal(p.grad, g)


def test_grad_mode_restored_after_a_refused_cohort(model, world):
    """A cohort refused part way leaves training as it was: the training
    loss still tapes, and its backward reaches every parameter."""
    corpus, cold = world
    trips = list(next(t for t in cold if len(t) >= 3))
    trips[1] = dataclasses.replace(trips[1], origin_loc=model.vocab.n_locations)
    with pytest.raises(ContractViolation):
        model.predict_cold_cohort(cold + [trips])
    saved = {n: p.grad for n, p in model.params.items()}
    try:
        for p in model.params.values():
            p.zero_grad()
        utc = model.config.utc_offset_hours
        loss = model._loss(0, encoder_sequences(corpus.trips_by_user[0], utc))
        assert loss._parents
        loss.backward()
        for n, p in model.params.items():
            assert p.grad is not None, n
            assert np.isfinite(p.grad).all(), n
    finally:
        for n, p in model.params.items():
            p.grad = saved[n]


def test_predict_cold_contracts(model, world):
    _, cold = world
    trips = next(t for t in cold if len(t) >= 2)
    with pytest.raises(ColdStartError):
        model.predict_cold([], trips[0].origin_loc, trips[0].dest_loc)
    with pytest.raises(ContractViolation):
        model.predict_cold(trips[:1], model.vocab.n_locations, trips[0].dest_loc)
    with pytest.raises(ContractViolation):
        model.predict_cold(trips[:1], trips[1].origin_loc, -1)
    probs = model.predict_cold(trips[:1], trips[1].origin_loc, trips[0].dest_loc)
    assert probs.shape == (model.vocab.n_locations,)
    np.testing.assert_allclose(probs.sum(), 1.0, rtol=0, atol=1e-12)
