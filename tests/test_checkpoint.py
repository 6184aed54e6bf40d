"""Checkpoint round trips, loading without copies or draws, and failure modes."""

import numpy as np
import pytest

from odnext import model as model_module
from odnext import nn, stlstm
from odnext.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from odnext.data import (
    build_interval_tables,
    build_test_queries,
    build_vocab,
    chronological_split,
)
from odnext.evaluation import ModelRanker, evaluate
from odnext.model import ATTENTION_CONTEXTS, VARIANTS, Model, ModelConfig
from odnext.nn import ContractViolation
from odnext.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    corpus, _ = generate(
        SynthConfig(n_users=12, n_locations=8, n_clusters=4, trips_per_user=8, seed=9)
    )
    split = chronological_split(corpus, 0.7)
    vocab = build_vocab(corpus)
    tables = build_interval_tables(split.train)
    model = Model(ModelConfig(dim=5, hdim=6, lr=1e-2, epochs=2, seed=4), vocab, tables)
    model.fit(split.train)
    cache = model.build_cache(split.train)
    loc_ids = [r.loc_id for r in corpus.locations]
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(str(path), model, cache, loc_ids, corpus.users)
    return corpus, split, model, cache, str(path)


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, trained, tmp_path):
        corpus, _, _, _, path = trained
        bundle = load_checkpoint(path)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(
            str(path2), bundle.model, bundle.cache, bundle.location_ids, bundle.user_ids
        )
        assert open(path, "rb").read() == open(str(path2), "rb").read()

    def test_parameters_and_tables_bit_exact(self, trained):
        _, _, model, cache, path = trained
        bundle = load_checkpoint(path)
        for name, p in model.params.items():
            np.testing.assert_array_equal(bundle.model.params[name].value, p.value)
        np.testing.assert_array_equal(bundle.model.tables.spatial, model.tables.spatial)
        np.testing.assert_array_equal(bundle.model.tables.temporal, model.tables.temporal)
        assert bundle.model.tables.d_max_km == model.tables.d_max_km
        assert bundle.model.tables.t_max_hours == model.tables.t_max_hours
        for a, b in zip(bundle.cache.states, cache.states):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(bundle.cache.last_dest, cache.last_dest)
        np.testing.assert_array_equal(bundle.cache.n_train, cache.n_train)

    def test_predictions_identical_after_reload(self, trained):
        _, split, model, cache, path = trained
        bundle = load_checkpoint(path)
        queries = build_test_queries(split)
        before = evaluate(ModelRanker(model, cache), queries)
        after = evaluate(ModelRanker(bundle.model, bundle.cache), queries)
        assert before == after

    def test_vocab_round_trip(self, trained):
        corpus, _, model, _, path = trained
        bundle = load_checkpoint(path)
        assert bundle.location_ids == [r.loc_id for r in corpus.locations]
        assert bundle.user_ids == corpus.users
        assert bundle.model.vocab.geohash_codes == model.vocab.geohash_codes
        np.testing.assert_array_equal(bundle.model.vocab.loc_geohash, model.vocab.loc_geohash)


def _bundle_arrays(bundle):
    m = bundle.model
    return (
        [p.value for p in m.params.values()]
        + [m.tables.spatial, m.tables.temporal]
        + list(bundle.cache.states)
    )


class TestLoad:
    def test_load_draws_no_random_numbers(self, trained, monkeypatch):
        _, _, model, _, path = trained

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an initialisation")

        monkeypatch.setattr(np.random, "default_rng", draw)
        for module in (nn, stlstm, model_module):
            for name in ("glorot_uniform", "embedding_init", "zeros_init"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, draw)
        bundle = load_checkpoint(path)
        for name, p in model.params.items():
            np.testing.assert_array_equal(bundle.model.params[name].value, p.value)

    def test_tensors_are_read_into_their_own_arrays(self, trained):
        bundle = load_checkpoint(trained[-1])
        arrays = _bundle_arrays(bundle)
        for a in arrays:
            assert a.base is None and a.dtype == np.float64
            assert a.flags.aligned and a.flags.writeable and a.flags.c_contiguous
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :]
        )
        # the model and its encoders wrap these very arrays, not copies
        assert bundle.model.enc_o.W_x is bundle.model.params["enc_o/W_x"]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("context", ATTENTION_CONTEXTS)
    def test_loaded_params_match_a_fresh_model(self, trained, tmp_path, variant, context):
        corpus, split, model, _, _ = trained
        cfg = ModelConfig(dim=5, hdim=6, seed=2, variant=variant, attention_context=context)
        fresh = Model(cfg, model.vocab, model.tables)
        cache = fresh.build_cache(split.train)
        path = str(tmp_path / "fresh.ckpt")
        save_checkpoint(path, fresh, cache, [r.loc_id for r in corpus.locations], corpus.users)
        loaded = load_checkpoint(path).model
        assert [(k, p.shape) for k, p in loaded.params.items()] == [
            (k, p.shape) for k, p in fresh.params.items()
        ]
        for name, p in fresh.params.items():
            np.testing.assert_array_equal(loaded.params[name].value, p.value)
        for enc in ("enc_o", "enc_d"):
            expect, got = getattr(fresh, enc), getattr(loaded, enc)
            assert type(got) is type(expect)
            if got is not None:
                assert got.params(enc).keys() == expect.params(enc).keys()
                assert all(loaded.params[k] is t for k, t in got.params(enc).items())

    def test_declared_params_are_required(self, trained):
        _, _, model, _, _ = trained
        params = {k: p.value for k, p in model.params.items()}
        with pytest.raises(ContractViolation, match="emb/loc"):
            Model(model.config, model.vocab, model.tables, {**params, "emb/loc": np.zeros((1, 1))})
        shuffled = dict(reversed(params.items()))
        with pytest.raises(ContractViolation, match="order"):
            Model(model.config, model.vocab, model.tables, shuffled)
        with pytest.raises(ContractViolation, match="out/W_loc"):
            Model(model.config, model.vocab, model.tables,
                  {k: v for k, v in params.items() if k != "out/W_loc"})


class TestFailureModes:
    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOT-A-CHECKPOINT\n{}\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(p))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes((MAGIC + "\n").encode())
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(p))

    def test_bad_json_header(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes((MAGIC + "\n{not json\n").encode())
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(p))

    def test_truncated_payload(self, trained, tmp_path):
        _, _, _, _, path = trained
        blob = open(path, "rb").read()
        p = tmp_path / "cut.ckpt"
        p.write_bytes(blob[:-16])
        with pytest.raises(CheckpointFormatError, match="truncated|trailing"):
            load_checkpoint(str(p))

    def test_trailing_garbage(self, trained, tmp_path):
        _, _, _, _, path = trained
        blob = open(path, "rb").read()
        p = tmp_path / "fat.ckpt"
        p.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(str(p))

    def test_save_validates_id_lists(self, trained, tmp_path):
        _, _, model, cache, _ = trained
        with pytest.raises(ContractViolation):
            save_checkpoint(str(tmp_path / "x.ckpt"), model, cache, ["only-one"], ["u"])
