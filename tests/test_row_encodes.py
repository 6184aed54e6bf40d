"""Row-axis encodes against one encode per sequence, bit for bit.

The cache build, the od-lstm's final states and cold start run
equal-length histories through each encoder together, at most MAX_ROWS
at a time.  Every row must equal the one-sequence encode of
`tests/reference.py`, over cohorts with 0, 1, 2 and mixed trip counts and
one length shared by more than MAX_ROWS users, so that a chunk boundary
is crossed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import odnext.autograd as ag
import reference as ref
from helpers import DAY, make_locations
from odnext.baselines import ODLSTM, ODLSTMConfig
from odnext.data import Corpus, Sequences, Trip, build_interval_tables, build_vocab
from odnext.evaluation import cold_start_eval
from odnext.model import ATTENTION_CONTEXTS, VARIANTS, Model, ModelConfig
from odnext.nn import ContractViolation, draw_params
from odnext.stlstm import (
    MAX_ROWS,
    STLSTMInput,
    encode_by_length,
    lstm_encode,
    lstm_spec,
    st_lstm_encode,
    st_lstm_spec,
)

N_LOCATIONS = 7


def history_corpus(counts: list[int], seed: int) -> Corpus:
    """One user per entry of `counts`, with that many chronological trips."""
    rng = np.random.default_rng(seed)
    users = [f"U{u:03d}" for u in range(len(counts))]
    histories = []
    for n in counts:
        t = int(rng.integers(0, DAY))
        trips = []
        for _ in range(n):
            dur = int(rng.integers(300, 3600))
            o, d = (int(x) for x in rng.integers(0, N_LOCATIONS, size=2))
            trips.append(Trip(o, d, t, t + dur))
            t += dur + int(rng.integers(600, DAY))
        histories.append(trips)
    return Corpus(make_locations(N_LOCATIONS, rng), users, histories)


@st.composite
def cohorts(draw) -> Corpus:
    """Mixed trip counts, at least one of them 2 or more, plus a crowd of
    more than MAX_ROWS users of one count (0, 1, 2 or 4), shuffled."""
    mixed = draw(st.lists(st.integers(min_value=0, max_value=6), max_size=10))
    mixed.append(draw(st.integers(min_value=2, max_value=6)))
    crowd = [draw(st.sampled_from([0, 1, 2, 4]))] * (MAX_ROWS + draw(st.integers(1, 3)))
    counts = draw(st.permutations(mixed + crowd))
    return history_corpus(counts, draw(st.integers(min_value=0, max_value=2**32 - 1)))


def noisy_model(corpus: Corpus, variant: str, context: str) -> Model:
    """A model with every parameter perturbed, biases included."""
    cfg = ModelConfig(
        dim=4, hdim=5, seed=3, variant=variant, attention_context=context, utc_offset_hours=-5
    )
    model = Model(cfg, build_vocab(corpus), build_interval_tables(corpus))
    rng = np.random.default_rng(4)
    for p in model.params.values():
        p.value += rng.normal(scale=0.1, size=p.value.shape)
    return model


def reference_eval(model, top, cohort):
    model_hits = top_hits = n = 0
    for trips in cohort:
        if len(trips) < 2:
            continue
        targets = np.array([t.dest_loc for t in trips[1:]])
        top1 = ref.cold_history(model, trips).argmax(axis=1)
        model_hits += int(np.count_nonzero(top1 == targets))
        top_hits += int(np.count_nonzero(targets == top[0]))
        n += len(targets)
    return model_hits / n, top_hits / n, n


def test_encode_by_length_groups_caps_and_hands_back_rows():
    lengths = [3, 0, 3] + [5] * (2 * MAX_ROWS + 1) + [0]
    histories = [Sequences(*[np.full(n, i, dtype=np.int64)] * 5) for i, n in enumerate(lengths)]
    seen = []

    def encode(rows):
        seen.append(rows.oseq.shape)
        return rows.oseq, np.full(len(rows.oseq), len(seen) - 1), np.arange(len(rows.oseq))

    out = encode_by_length(histories, encode)
    assert seen == [(2, 3), (2, 0), (MAX_ROWS, 5), (MAX_ROWS, 5), (1, 5)]
    fives = list(range(3, 4 + 2 * MAX_ROWS))
    runs = [[0, 2], [1, len(lengths) - 1], fives[:MAX_ROWS], fives[MAX_ROWS:-1], fives[-1:]]
    for call, run in enumerate(runs):
        for b, i in enumerate(run):
            oseq, got_call, got_row = out[i]
            np.testing.assert_array_equal(oseq, histories[i].oseq)
            assert (got_call, got_row) == (call, b)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=8, deadline=None)
@given(corpus=cohorts())
def test_cache_and_cold_start_match_one_encode_per_user(variant, corpus):
    top = np.random.default_rng(0).permutation(N_LOCATIONS)
    for context in ATTENTION_CONTEXTS:
        model = noisy_model(corpus, variant, context)
        cache = model.build_cache(corpus)
        for got, want in zip(cache.states, ref.cache_states(model, corpus), strict=True):
            np.testing.assert_array_equal(got, want)
        cohort = corpus.trips_by_user
        rows = model.predict_cold_cohort(cohort)
        assert len(rows) == len(cohort)
        for trips, got in zip(cohort, rows):
            if len(trips) < 2:
                assert got.shape == (0, N_LOCATIONS)
                continue
            np.testing.assert_array_equal(got, ref.cold_history(model, trips))
            np.testing.assert_array_equal(got, model.predict_cold_cohort([trips])[0])
        assert cold_start_eval(model, top, cohort) == reference_eval(model, top, cohort)


@settings(max_examples=8, deadline=None)
@given(corpus=cohorts())
def test_odlstm_final_states_match_one_encode_per_user(corpus):
    od = ODLSTM(ODLSTMConfig(dim=4, hdim=5, lr=1e-2, epochs=1, seed=2), N_LOCATIONS)
    od.fit(corpus)
    expected = zip(ref.final_states(od, corpus), corpus.trips_by_user, strict=True)
    for (h, c), ((h_ref, c_ref), trips) in zip(od._final, expected, strict=True):
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_array_equal(c, c_ref)
        if len(trips) < 2:
            assert not h.any() and not c.any()


@given(st.integers(min_value=1, max_value=MAX_ROWS), st.integers(min_value=0, max_value=6))
@settings(max_examples=20, deadline=None)
def test_lstm_rows_match_one_sequence_from_any_state(rows, steps):
    rng = np.random.default_rng([rows, steps])
    w = draw_params(lstm_spec(3, 5), rng)
    x = rng.normal(size=(rows, steps, 3))
    h0 = rng.normal(size=(rows, 5))
    c0 = rng.normal(size=(rows, 5))
    states, h, c = lstm_encode(w, ag.constant(x), h0, c0)
    assert states.shape == (rows, steps, 5)
    for b in range(rows):
        one, h_b, c_b = lstm_encode(w, ag.constant(x[b]), h0[b], c0[b])
        np.testing.assert_array_equal(states.value[b], one.value)
        np.testing.assert_array_equal(h[b], h_b)
        np.testing.assert_array_equal(c[b], c_b)


def test_a_row_axis_encode_is_a_constant():
    """Rows keep no backward trace, so their states go on no tape, even
    over parameters; a one-sequence encode of the same inputs does."""
    rng = np.random.default_rng(0)
    w = draw_params(lstm_spec(3, 4), rng)
    x = ag.parameter(rng.normal(size=(2, 3, 3)))
    states, _, _ = lstm_encode(w, x)
    assert states.shape == (2, 3, 4) and not ag.needs_grad(states)
    assert ag.needs_grad(lstm_encode(w, ag.take_rows(x, 0))[0])
    stw = draw_params(st_lstm_spec(3, 4, 5), rng)
    emb, dist = ag.parameter(np.zeros((2, 3, 3))), ag.parameter(np.zeros((2, 3, 5)))
    states = st_lstm_encode(stw, STLSTMInput(emb, emb, emb, dist, dist))
    assert states.shape == (2, 3, 4) and not ag.needs_grad(states)


# (member, trip) pairs; the last trip's destination is only a scored
# target, which the model never encodes
@pytest.mark.parametrize(
    "position, trip",
    [(0, 1), (MAX_ROWS + 1, 1), (0, -1), (MAX_ROWS + 1, -1)],
    ids=["0", f"{MAX_ROWS + 1}", "0-last", f"{MAX_ROWS + 1}-last"],
)
@pytest.mark.parametrize("field", ["origin_loc", "dest_loc"])
def test_out_of_range_location_in_any_member_raises(position, trip, field):
    corpus = history_corpus([3] * (MAX_ROWS + 2) + [2, 5], seed=1)
    model = noisy_model(corpus, "stod-ppa", "causal")
    cohort = [list(t) for t in corpus.trips_by_user]
    cohort[position][trip] = dataclasses.replace(cohort[position][trip], **{field: N_LOCATIONS})
    if (trip, field) != (-1, "dest_loc"):
        with pytest.raises(ContractViolation):
            model.predict_cold_cohort(cohort)
    with pytest.raises(ContractViolation):
        cold_start_eval(model, np.arange(N_LOCATIONS), cohort)
