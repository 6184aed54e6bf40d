"""End-to-end model behavior across the ablation variants."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import user_vector
from odnext.data import (
    build_interval_tables,
    build_vocab,
    chronological_split,
    encoder_sequences,
)
from odnext.model import ATTENTION_CONTEXTS, VARIANTS, ColdStartError, Model, ModelConfig
from odnext.nn import ContractViolation
from odnext.synth import SynthConfig, generate

DIM, HDIM = 6, 8


@pytest.fixture(scope="module")
def small_world():
    corpus, _ = generate(
        SynthConfig(n_users=12, n_locations=8, n_clusters=4, trips_per_user=8, seed=3)
    )
    vocab = build_vocab(corpus)
    tables = build_interval_tables(corpus)
    return corpus, vocab, tables


def make_model(small_world, variant="stod-ppa", **kw):
    corpus, vocab, tables = small_world
    kw.setdefault("dim", DIM)
    kw.setdefault("hdim", HDIM)
    cfg = ModelConfig(variant=variant, **kw)
    return Model(cfg, vocab, tables)


@pytest.fixture(scope="module")
def trained(small_world):
    corpus, vocab, tables = small_world
    model = Model(
        ModelConfig(dim=DIM, hdim=HDIM, lr=1e-2, epochs=3, seed=1), vocab, tables
    )
    curve = model.fit(corpus)
    cache = model.build_cache(corpus)
    return corpus, model, cache, curve


class TestConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ContractViolation):
            ModelConfig(variant="transformer")

    def test_rejects_unknown_attention_context(self):
        with pytest.raises(ContractViolation):
            ModelConfig(attention_context="windowed")

    @pytest.mark.parametrize(
        "kw",
        [
            {"dim": 0},
            {"hdim": -1},
            {"lr": 0.0},
            {"epochs": -1},
            {"geohash_precision": 0},
            {"geohash_precision": 13},
            {"leaky_slope": -0.5},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"leaky_slope": float("nan")},
            {"leaky_slope": float("inf")},
            {"seed": -1},
            {"utc_offset_hours": -13},
            {"utc_offset_hours": 15},
        ],
    )
    def test_rejects_bad_numbers(self, kw):
        with pytest.raises(ContractViolation):
            ModelConfig(**kw)

    @pytest.mark.parametrize("hours", [-12, 14])
    def test_accepts_the_utc_offset_bounds(self, hours):
        assert ModelConfig(utc_offset_hours=hours).utc_offset_hours == hours

    def test_as_dict_round_trips(self):
        cfg = ModelConfig(dim=4, hdim=6, variant="od-ppa")
        assert ModelConfig(**cfg.as_dict()) == cfg


class TestParameterShapes:
    def test_stod_ppa(self, small_world):
        m = make_model(small_world)
        L, U = m.vocab.n_locations, m.vocab.n_users
        G = m.vocab.n_geohashes
        assert m.params["emb/loc"].shape == (L, DIM)
        assert m.params["emb/geo"].shape == (G, DIM)
        assert m.params["emb/slot"].shape == (8, DIM)
        assert m.params["emb/user"].shape == (U, DIM)
        assert m.params["enc_o/W_x"].shape == (DIM, 4 * HDIM)
        assert m.params["enc_o/V_s"].shape == (L, 3 * HDIM)
        assert m.params["enc_d/W_h"].shape == (3 * HDIM, HDIM)
        assert m.params["attn/W_A"].shape == (3 * DIM + HDIM, HDIM)
        assert m.params["out/W_loc"].shape == (HDIM, L)

    def test_od_ppa_drops_context_tables(self, small_world):
        m = make_model(small_world, variant="od-ppa")
        assert "emb/geo" not in m.params
        assert "emb/slot" not in m.params
        assert "enc_o/V_s" not in m.params
        assert m.params["enc_o/W_x"].shape == (DIM, 4 * HDIM)

    def test_encoder_only(self, small_world):
        m = make_model(small_world, variant="encoder-only")
        assert "attn/W_A" not in m.params
        assert "emb/user" not in m.params
        assert m.params["out/W_loc"].shape == (2 * HDIM, m.vocab.n_locations)

    def test_decoder_only(self, small_world):
        m = make_model(small_world, variant="decoder-only")
        assert "enc_o/W_x" not in m.params
        assert m.params["attn/W_A"].shape == (4 * DIM, DIM)
        assert m.params["out/W_loc"].shape == (DIM, m.vocab.n_locations)

    def test_user_variants(self, small_world):
        add = make_model(small_world, variant="user-add")
        assert add.params["emb/user"].shape == (add.vocab.n_users, HDIM)
        assert add.params["attn/W_A"].shape == (2 * DIM + HDIM, HDIM)
        cat = make_model(small_world, variant="user-concat")
        assert cat.params["emb/user"].shape == (cat.vocab.n_users, DIM)
        assert cat.params["out/W_loc"].shape == (HDIM + DIM, cat.vocab.n_locations)


class TestForward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_initial_loss_near_uniform(self, small_world, variant):
        corpus, vocab, _ = small_world
        m = make_model(small_world, variant=variant)
        seqs = encoder_sequences(corpus.trips_by_user[0], m.config.utc_offset_hours)
        loss = m._loss(0, seqs).item()
        assert loss == pytest.approx(np.log(vocab.n_locations), rel=0.2)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predictions_are_distributions(self, small_world, variant):
        corpus, _, _ = small_world
        m = make_model(small_world, variant=variant)
        cache = m.build_cache(corpus)
        probs = m.predict_batch(cache, 2, [0, 1, 3], [1, 2, 0])
        assert probs.shape == (3, m.vocab.n_locations)
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestAttention:
    def test_weights_sum_to_one_per_dimension(self, small_world):
        corpus, _, _ = small_world
        m = make_model(small_world)
        seqs = encoder_sequences(corpus.trips_by_user[1], m.config.utc_offset_hours)
        _, [(_, alpha, _)] = m._forward(seqs, 1)
        sums = alpha.sum(axis=0)  # (S, E, sd): over the states
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_attention_api_splits_blocks(self, trained):
        corpus, model, cache, _ = trained
        probs, ow, dw = model.attention(cache, 0, 1, 2)
        n_states = len(cache.oseq[0])
        assert ow.shape == (n_states,)
        assert dw.shape == (n_states,)
        assert ow.sum() + dw.sum() == pytest.approx(1.0, abs=1e-9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_encoder_only_has_no_attention(self, small_world):
        corpus, _, _ = small_world
        m = make_model(small_world, variant="encoder-only")
        cache = m.build_cache(corpus)
        with pytest.raises(ContractViolation):
            m.attention(cache, 0, 0, 0)


class TestCausalContext:
    def test_causal_predictions_ignore_future_trips(self, small_world):
        corpus, _, _ = small_world
        m = make_model(small_world, attention_context="causal")
        trips = corpus.trips_by_user[0]
        full_head, _ = m._forward(encoder_sequences(trips, m.config.utc_offset_hours), 0)
        cut = 4
        cut_head, _ = m._forward(encoder_sequences(trips[: cut + 1], m.config.utc_offset_hours), 0)
        np.testing.assert_allclose(full_head.value[:cut], cut_head.value, atol=1e-12)

    def test_default_context_attends_to_future(self, small_world):
        corpus, _, _ = small_world
        m = make_model(small_world, attention_context="all")
        trips = corpus.trips_by_user[0]
        full_head, _ = m._forward(encoder_sequences(trips, m.config.utc_offset_hours), 0)
        cut = 4
        cut_head, _ = m._forward(encoder_sequences(trips[: cut + 1], m.config.utc_offset_hours), 0)
        assert np.abs(full_head.value[:cut] - cut_head.value).max() > 1e-9


class TestTraining:
    def test_loss_curve_decreases(self, trained):
        _, _, _, curve = trained
        assert len(curve) == 3
        assert curve[-1] < curve[0]

    def test_bitwise_deterministic(self, small_world):
        corpus, vocab, tables = small_world
        cfg = ModelConfig(dim=DIM, hdim=HDIM, lr=1e-2, epochs=2, seed=9)
        a = Model(cfg, vocab, tables)
        b = Model(cfg, vocab, tables)
        curve_a = a.fit(corpus)
        curve_b = b.fit(corpus)
        assert curve_a == curve_b
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].value, b.params[k].value)
        cache_a = a.build_cache(corpus)
        cache_b = b.build_cache(corpus)
        pa = a.predict_batch(cache_a, 3, [1], [0])
        pb = b.predict_batch(cache_b, 3, [1], [0])
        np.testing.assert_array_equal(pa, pb)

    def test_non_finite_loss_stops_before_any_update(self, small_world):
        corpus, _, _ = small_world
        m = make_model(small_world, lr=1e-2, epochs=2)
        m.params["enc_o/U_h"].value[0, 0] = np.nan
        before = {k: p.value.copy() for k, p in m.params.items()}
        with pytest.raises(ContractViolation, match="epoch 1, user ") as err:
            m.fit(corpus)
        assert any(repr(u) in str(err.value) for u in corpus.users)
        for k, p in m.params.items():
            np.testing.assert_array_equal(p.value, before[k])

    def test_fit_rejects_foreign_corpus(self, small_world):
        corpus, vocab, tables = small_world
        other, _ = generate(
            SynthConfig(n_users=5, n_locations=8, n_clusters=4, trips_per_user=6, seed=8)
        )
        m = make_model(small_world)
        with pytest.raises(ContractViolation):
            m.fit(other)

    def test_utc_offset_is_a_shift_of_every_timestamp(self, small_world):
        """`utc_offset_hours=-5` on a corpus trains, caches and cold-starts
        bit for bit as offset 0 on the same corpus with every timestamp 5 h
        earlier, whose slots, durations and trip order are the same; offset
        0 on the unshifted corpus trains otherwise, so the offset is read."""
        corpus, vocab, tables = small_world
        shift = 5 * 3600
        shifted = replace(corpus, trips_by_user=[
            [replace(t, pickup_ts=t.pickup_ts - shift, dropoff_ts=t.dropoff_ts - shift)
             for t in trips]
            for trips in corpus.trips_by_user
        ])
        np.testing.assert_array_equal(build_interval_tables(shifted).temporal, tables.temporal)
        runs = []
        for world, utc in ((corpus, -5), (shifted, 0), (corpus, 0)):
            cfg = ModelConfig(dim=DIM, hdim=HDIM, lr=1e-2, epochs=2, seed=1, utc_offset_hours=utc)
            m = Model(cfg, vocab, tables)
            curve = m.fit(world)
            cache = m.build_cache(world)
            cold = m.predict_cold_cohort(world.trips_by_user[:4])
            runs.append((curve, m.params, cache, cold))
        (curve, params, cache, cold), (curve0, params0, cache0, cold0), (other, *_) = runs
        assert curve == curve0
        assert other != curve
        for name, p in params.items():
            assert p.value.tobytes() == params0[name].value.tobytes(), name
        for field in ("states", "keys", "oseq", "dseq"):
            assert getattr(cache, field).flat.tobytes() == getattr(cache0, field).flat.tobytes()
        assert [r.tobytes() for r in cold] == [r.tobytes() for r in cold0]
        assert sum(len(r) for r in cold) > 0


class TestCacheEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cached_equals_fresh(self, small_world, variant):
        corpus, _, _ = small_world
        m = make_model(small_world, variant=variant)
        cache = m.build_cache(corpus)
        user = 5
        origins = np.array([0, 2], dtype=np.int64)
        dprevs = np.array([1, 1], dtype=np.int64)
        cached = m.predict_batch(cache, user, origins, dprevs)
        seqs = encoder_sequences(corpus.trips_by_user[user], m.config.utc_offset_hours)
        so, sd, _, _ = m._encode(seqs)
        fresh_states = np.concatenate([so.value, sd.value], axis=0)
        fresh, _ = m._predict_states(fresh_states, origins, dprevs, user_vector(m, user))
        np.testing.assert_allclose(cached, fresh, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("context", ATTENTION_CONTEXTS)
    def test_cache_keys_are_the_states_projection(self, small_world, variant, context):
        """keys[u] is states[u] @ W_A[qw:] bit for bit, the product `attend`
        forms when it gets no keys; encoder-only, which does not attend,
        has none."""
        corpus, _, _ = small_world
        m = make_model(small_world, variant=variant, attention_context=context, epochs=1)
        m.fit(corpus)
        cache = m.build_cache(corpus)
        if variant == "encoder-only":
            assert cache.keys is None
            return
        w_a = m.params["attn/W_A"].value
        w_s = w_a[len(w_a) - m.config.state_dim :]
        assert len(cache.keys) == len(cache.states)
        for keys, states in zip(cache.keys, cache.states, strict=True):
            assert keys.shape == states.shape
            assert keys.tobytes() == (states @ w_s).tobytes()

    def test_cache_metadata(self, trained):
        corpus, model, cache, _ = trained
        for u, trips in enumerate(corpus.trips_by_user):
            assert cache.n_train[u] == len(trips)
            assert cache.last_dest[u] == trips[-1].dest_loc
            assert cache.states[u].shape == (2 * (len(trips) - 1), HDIM)
            np.testing.assert_array_equal(
                cache.oseq[u], [t.origin_loc for t in trips[1:]]
            )

    def test_short_history_raises_cold_start(self, small_world):
        corpus, vocab, tables = small_world
        m = make_model(small_world)
        trimmed = chronological_split(corpus, 1.0).train  # copy shape
        trimmed.trips_by_user[4] = trimmed.trips_by_user[4][:1]
        cache = m.build_cache(trimmed)
        with pytest.raises(ColdStartError):
            m.predict_batch(cache, 4, [0], [0])


class TestValidation:
    def test_predict_rejects_bad_user(self, trained):
        _, model, cache, _ = trained
        with pytest.raises(ContractViolation):
            model.predict_batch(cache, 99, [0], [0])

    def test_predict_rejects_bad_location(self, trained):
        _, model, cache, _ = trained
        with pytest.raises(ContractViolation):
            model.predict_batch(cache, 0, [0], [model.vocab.n_locations])

    # (user, origin, previous destination): negative indices must not wrap
    # around to another user's or location's rows
    BAD_QUERIES = {
        "user-negative": (-1, 0, 0),
        "origin-negative": (0, -1, 0),
        "user-999": (999, 0, 0),
        "origin-999": (0, 999, 0),
        "dprev-negative": (0, 0, -1),
        "dprev-999": (0, 0, 999),
    }

    @pytest.mark.parametrize("case", sorted(BAD_QUERIES))
    def test_attention_rejects_bad_indices(self, trained, case):
        _, model, cache, _ = trained
        with pytest.raises(ContractViolation, match="out of range"):
            model.attention(cache, *self.BAD_QUERIES[case])

    @pytest.mark.parametrize("case", sorted(BAD_QUERIES))
    def test_predict_batch_rejects_bad_indices(self, trained, case):
        _, model, cache, _ = trained
        user, origin, dprev = self.BAD_QUERIES[case]
        with pytest.raises(ContractViolation, match="out of range"):
            model.predict_batch(cache, user, [origin], [dprev])


    # requests the Python API once truncated (1.5 read as 1), refused only
    # inside numpy, or refused with a TypeError
    BAD_REQUESTS = {
        "origin-float": ("predict_batch", 0, [1.5], [2]),
        "dprev-float": ("predict_batch", 0, [1], [2.0]),
        "origin-bool": ("predict_batch", 0, [True], [2]),
        "lengths-differ": ("predict_batch", 0, [1, 2], [3]),
        "two-dimensional": ("predict_batch", 0, [[1], [2]], [[3], [4]]),
        "scalar-queries": ("predict_batch", 0, 1, 2),
        "object-origins": ("predict_batch", 0, [2**70], [2]),
        "user-float-batch": ("predict_batch", 0.5, [1], [2]),
        "user-bool-batch": ("predict_batch", True, [1], [2]),
        "attention-origin-float": ("attention", 0, 1.5, 2),
        "attention-dprev-float": ("attention", 0, 1, np.float64(2.0)),
        "attention-user-float": ("attention", 0.5, 1, 2),
    }

    @pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
    def test_refuses_requests_that_are_not_integer_indices(self, trained, case, monkeypatch):
        _, model, cache, _ = trained
        method, user, origins, dprevs = self.BAD_REQUESTS[case]

        def no_work(*args, **kwargs):
            raise AssertionError("a refused request reached the decoder")

        monkeypatch.setattr(model, "_predict_cached", no_work)
        with pytest.raises(ContractViolation):
            getattr(model, method)(cache, user, origins, dprevs)

    @pytest.mark.parametrize("origin,dprev", [(1.5, 2), (1, 2.0), (True, 2)])
    def test_cold_prediction_refuses_non_integer_locations(self, trained, origin, dprev):
        corpus, model, _, _ = trained
        with pytest.raises(ContractViolation, match="integers"):
            model.predict_cold(corpus.trips_by_user[0][:3], origin, dprev)

    def test_accepts_numpy_integers_and_empty_requests(self, trained):
        _, model, cache, _ = trained
        want = model.predict_batch(cache, 2, [1, 3], [0, 2])
        for origins, dprevs in (
            (np.array([1, 3], dtype=np.int32), np.array([0, 2], dtype=np.uint8)),
            ((np.int64(1), 3), [0, np.uint16(2)]),
        ):
            got = model.predict_batch(cache, np.int64(2), origins, dprevs)
            assert got.tobytes() == want.tobytes()
        assert model.predict_batch(cache, 2, [], []).shape == (0, model.vocab.n_locations)
        # one query, as a product of one row has its own bits
        one = model.predict_batch(cache, 2, [1], [0])
        probs, _, _ = model.attention(cache, np.int32(2), np.int64(1), np.uint8(0))
        assert probs.tobytes() == one[0].tobytes()


class TestColdStart:
    def test_empty_prefix_rejected(self, trained):
        _, model, _, _ = trained
        with pytest.raises(ColdStartError):
            model.predict_cold([], 0, 1)

    def test_cold_prediction_is_distribution(self, trained):
        corpus, model, _, _ = trained
        prefix = corpus.trips_by_user[0][:3]
        probs = model.predict_cold(prefix, 2, 1)
        assert probs.shape == (model.vocab.n_locations,)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)

    def test_cold_user_vector_is_mean(self, trained):
        _, model, _, _ = trained
        np.testing.assert_allclose(
            model.cold_user_vector(),
            model.params["emb/user"].value.mean(axis=0),
            atol=0,
        )

    def test_single_trip_prefix_enough(self, trained):
        corpus, model, _, _ = trained
        probs = model.predict_cold(corpus.trips_by_user[1][:1], 0, 0)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)
