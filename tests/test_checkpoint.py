"""Checkpoint round trips, mapped loads without copies or draws, saves
that replace the file, and failure modes."""

import errno
import json
import stat
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from odnext import checkpoint as checkpoint_module
from odnext import model as model_module
from odnext import nn, stlstm
from odnext.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from odnext.cli import guarded, main
from odnext.data import (
    Corpus,
    build_interval_tables,
    build_test_queries,
    build_vocab,
    chronological_split,
)
from odnext.evaluation import ModelRanker, evaluate
from odnext.model import ATTENTION_CONTEXTS, VARIANTS, EncodedCache, Model, ModelConfig, in_range
from odnext.nn import ContractViolation
from odnext.synth import SynthConfig, generate

from helpers import (
    int64s,
    join_checkpoint,
    split_checkpoint,
    stored_arrays,
    tensor_offsets,
    user_vector,
)

CACHE_FIELDS = ("states", "keys", "oseq", "dseq")


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
        for field in CACHE_FIELDS:
            got, want = getattr(bundle.cache, field), getattr(cache, field)
            for a, b in zip(got, want, strict=True):
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


class TestHeader:
    def test_header_holds_only_what_the_program_cannot_derive(self, trained):
        """No tensor table and no per-location or per-user array: those
        follow from the configuration and the id counts, or are tensors."""
        _, fields, _ = split_checkpoint(open(trained[-1], "rb").read())
        assert {key: sorted(value) for key, value in fields.items()} == {
            "config": sorted(ModelConfig().as_dict()),
            "ids": ["locations", "users"],
            "scales": ["d_max_km", "t_max_hours"],
            "vocab": ["geohash_codes", "n_timeslots"],
        }

    def test_header_line_does_not_depend_on_the_cached_histories(self, trained, tmp_path):
        """Two checkpoints of one model and one set of users, whose caches
        differ in every user's n_train and in last destinations, have the
        same header line byte for byte."""
        corpus, split, model, cache, path = trained
        train = split.train
        shorter = Corpus(train.locations, train.users, [t[:-1] for t in train.trips_by_user])
        other = model.build_cache(shorter)
        assert (other.n_train != cache.n_train).all()
        assert (other.last_dest != cache.last_dest).any()
        other_path = tmp_path / "shorter.ckpt"
        save_checkpoint(str(other_path), model, other, [r.loc_id for r in corpus.locations],
                        corpus.users)
        head = open(path, "rb").read().split(b"\n", 2)[:2]
        assert other_path.read_bytes().split(b"\n", 2)[:2] == head
        reloaded = load_checkpoint(str(other_path)).cache
        assert reloaded.n_train.tolist() == other.n_train.tolist()
        assert reloaded.last_dest.tolist() == other.last_dest.tolist()


@pytest.fixture(scope="module", params=VARIANTS)
def short_histories(request, trained, tmp_path_factory):
    """For each variant: an untrained model over the training corpus plus
    one user with a single trip and one with none, its built cache, and
    that cache saved and loaded back."""
    corpus, split, model, _, _ = trained
    train = split.train
    users = [*train.users, "U-one", "U-none"]
    histories = [*train.trips_by_user, train.trips_by_user[0][:1], []]
    extended = Corpus(train.locations, users, histories)
    cfg = ModelConfig(dim=5, hdim=6, seed=1, variant=request.param)
    fresh = Model(cfg, build_vocab(extended), model.tables)
    cache = fresh.build_cache(extended)
    path = str(tmp_path_factory.mktemp("short") / "model.ckpt")
    save_checkpoint(path, fresh, cache, [r.loc_id for r in corpus.locations], users)
    return fresh, cache, load_checkpoint(path).cache


class TestFlatLayout:
    def test_each_field_yields_one_array_per_user(self, short_histories):
        model, built, loaded = short_histories
        sd = model.config.state_dim
        for cache in (built, loaded):
            assert {0, 1} <= set(cache.n_train.tolist())
            runs = np.maximum(cache.n_train - 1, 0).tolist()
            for name in CACHE_FIELDS:
                rows = getattr(cache, name)
                if rows is None:
                    assert name == "keys" and model.config.variant == "encoder-only"
                    continue
                want = [(2 * n, sd) if name in ("states", "keys") else (n,) for n in runs]
                assert len(rows) == len(want)
                assert [a.shape for a in rows] == want
                assert [rows[u].shape for u in range(len(rows))] == want

    def test_rows_index_as_a_list_does(self, short_histories):
        _, built, loaded = short_histories
        for rows in (built.states, loaded.oseq):
            listed = list(rows)
            for u in (0, -1, -len(listed)):
                np.testing.assert_array_equal(rows[u], listed[u])
            for u in (len(listed), -len(listed) - 1):
                with pytest.raises(IndexError):
                    rows[u]

    def test_loaded_rows_are_views_of_one_mapped_buffer_per_field(self, short_histories):
        _, _, loaded = short_histories
        fields = [getattr(loaded, name) for name in CACHE_FIELDS]
        fields = [rows for rows in fields if rows is not None]
        for rows in fields:
            assert not rows.flat.flags.owndata  # the mapping's, not a copy
            assert all(np.shares_memory(row, rows.flat) for row in rows if row.size)
            assert sum(row.size for row in rows) == rows.flat.size
        for i, rows in enumerate(fields):
            assert not any(np.shares_memory(rows.flat, other.flat) for other in fields[i + 1 :])


def _rebuilt(cache, **changed):
    """`cache` built again from its flat arrays, with some of them, or its
    `last_dest` or `n_train`, replaced."""
    fields = {"last_dest": cache.last_dest, "n_train": cache.n_train}
    for name in CACHE_FIELDS:
        rows = getattr(cache, name)
        fields[name] = None if rows is None else rows.flat
    return EncodedCache.from_flat(**{**fields, **changed})


def _bundle_arrays(bundle):
    m = bundle.model
    return (
        [p.value for p in m.params.values()]
        + [m.tables.spatial, m.tables.temporal]
        + list(bundle.cache.states)
        + list(bundle.cache.keys or [])
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

    def test_tensors_are_aligned_views_of_the_mapped_file(self, trained):
        bundle = load_checkpoint(trained[-1])
        arrays = _bundle_arrays(bundle)
        for a in arrays:
            assert a.dtype == np.float64
            assert a.flags.aligned and a.flags.writeable and a.flags.c_contiguous
        sequences = list(bundle.cache.oseq) + list(bundle.cache.dseq)
        for a in sequences:
            assert a.dtype == np.int64 and a.flags.aligned and a.flags.c_contiguous
        arrays += sequences
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :]
        )
        # the model and its encoders wrap these very arrays, not copies
        assert bundle.model.enc_o["W_x"] is bundle.model.params["enc_o/W_x"]

    def test_writing_a_loaded_array_leaves_the_file_unchanged(self, trained, tmp_path):
        path = tmp_path / "copy.ckpt"
        path.write_bytes(open(trained[-1], "rb").read())
        before = path.read_bytes()
        bundle = load_checkpoint(str(path))
        for a in _bundle_arrays(bundle) + list(bundle.cache.oseq):
            a[...] = 7
        assert path.read_bytes() == before
        assert not np.array_equal(
            load_checkpoint(str(path)).model.params["emb/loc"].value,
            bundle.model.params["emb/loc"].value,
        )

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
            got = getattr(loaded, enc)
            assert list(got) == list(getattr(fresh, enc))
            assert all(loaded.params[f"{enc}/{k}"] is t for k, t in got.items())

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("context", ATTENTION_CONTEXTS)
    def test_reloaded_keys_predict_as_keys_computed_per_query(
        self, trained, tmp_path, variant, context
    ):
        """Every attending variant stores `cache/keys` (encoder-only none);
        the loaded cache's `predict_batch` and `attention` have the bits of
        `_predict_states`, which projects the states itself, and of the
        same cache without keys."""
        corpus, split, model, _, _ = trained
        cfg = ModelConfig(dim=5, hdim=6, seed=3, variant=variant, attention_context=context)
        fresh = Model(cfg, model.vocab, model.tables)
        path = str(tmp_path / "fresh.ckpt")
        save_checkpoint(path, fresh, fresh.build_cache(split.train),
                        [r.loc_id for r in corpus.locations], corpus.users)
        _, _, payload = split_checkpoint(open(path, "rb").read())
        attends = variant != "encoder-only"
        bundle = load_checkpoint(path)
        m, cache = bundle.model, bundle.cache
        assert (cache.keys is not None) == attends
        assert len(payload) == 8 * sum(a.size for a in stored_arrays(bundle).values())
        keyless = replace(cache, keys=None)
        origins, dprevs = np.array([0, 3, 7]), np.array([2, 2, 5])
        for u in np.flatnonzero(cache.n_train >= 2):
            got = m.predict_batch(cache, u, origins, dprevs)
            want, _ = m._predict_states(cache.states[u], origins, dprevs, user_vector(m, u))
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == m.predict_batch(keyless, u, origins, dprevs).tobytes()
            if attends:
                for got, want in zip(m.attention(cache, u, 1, 4), m.attention(keyless, u, 1, 4)):
                    assert got.tobytes() == want.tobytes()


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

    def test_unpadded_header_is_refused(self, trained, tmp_path):
        """A payload off the 64-byte boundary would give unaligned views."""
        magic, fields, payload = split_checkpoint(open(trained[-1], "rb").read())
        p = tmp_path / "unpadded.ckpt"
        p.write_bytes(f"{magic}\n{json.dumps(fields)}\n".encode() + payload)
        with pytest.raises(CheckpointFormatError, match="64-byte boundary"):
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

    def test_save_validates_cache_against_n_train(self, trained, tmp_path):
        """Users' sequences and states are stored back to back and split by
        n_train, so a cache that disagrees with it is refused, not misfiled;
        the refusal names the tensor."""
        corpus, _, model, cache, _ = trained
        ids = [r.loc_id for r in corpus.locations], corpus.users
        states, oseq = cache.states.flat, cache.oseq.flat
        first = len(cache.states[0])
        for bad in (
            dict(states=states[1:]),  # one state row short
            dict(states=states[first:]),  # the first user's rows missing
            dict(states=states[:, 1:]),  # one column narrow
            dict(oseq=oseq[:-1]),
            dict(dseq=oseq[1:]),
        ):
            (name,) = bad
            with pytest.raises(ContractViolation, match=rf"misshapen.*\['cache/{name}'\]"):
                save_checkpoint(str(tmp_path / "x.ckpt"), model, _rebuilt(cache, **bad), *ids)
        shrunk = _rebuilt(cache, n_train=cache.n_train[1:], last_dest=cache.last_dest[1:])
        wrong = r"misshapen.*'cache/last_dest', 'cache/n_train'"
        with pytest.raises(ContractViolation, match=wrong):
            save_checkpoint(str(tmp_path / "x.ckpt"), model, shrunk, *ids)

    def test_save_refuses_keys_that_disagree_with_the_states(self, trained, tmp_path):
        corpus, _, model, cache, _ = trained
        ids = [r.loc_id for r in corpus.locations], corpus.users
        keys = cache.keys.flat
        first = len(cache.keys[0])
        # one row short, one column narrow, the first user's rows missing, none
        for bad in (keys[:-1], keys[:, 1:], keys[first:], None):
            with pytest.raises(ContractViolation, match=r"misshapen.*\['cache/keys'\]"):
                save_checkpoint(str(tmp_path / "x.ckpt"), model, _rebuilt(cache, keys=bad), *ids)

    @pytest.mark.parametrize(
        "mutation", ["param-shape", "param-names", "last-dest", "loc-geohash"]
    )
    def test_save_refuses_what_load_refuses(self, trained, tmp_path, monkeypatch, mutation):
        """Save checks the header and tensor list with the loader's own
        checks: a parameter whose shape departs from its declaration, a
        parameter missing or not declared (a model wraps any arrays it is
        given), a last destination outside the vocabulary for a user with
        history, or a location's geohash id outside the geohash codes is a
        contract violation at save, and no file is written."""
        corpus, _, model, cache, _ = trained
        if mutation == "param-shape":
            w_a = model.params["attn/W_A"]
            monkeypatch.setattr(w_a, "value", w_a.value[:, :-1])
            message = r"misshapen.*\['param/attn/W_A'\]"
        elif mutation == "param-names":
            values = {k: p.value for k, p in model.params.items() if k != "out/W_loc"}
            model = Model(model.config, model.vocab, model.tables, {**values, "x": np.zeros(3)})
            message = r"missing, extra or misshapen: \['param/out/W_loc', 'param/x'\]"
        elif mutation == "last-dest":
            last_dest = cache.last_dest.copy()
            last_dest[np.flatnonzero(cache.n_train)[0]] = model.vocab.n_locations
            cache = _rebuilt(cache, last_dest=last_dest)
            message = "cached location outside"
        else:
            loc_geohash = model.vocab.loc_geohash.copy()
            loc_geohash[-1] = model.vocab.n_geohashes
            monkeypatch.setattr(model.vocab, "loc_geohash", loc_geohash)
            message = "loc_geohash is not"
        loc_ids = [r.loc_id for r in corpus.locations]
        with pytest.raises(ContractViolation, match=message):
            save_checkpoint(str(tmp_path / "x.ckpt"), model, cache, loc_ids, corpus.users)
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_an_array_that_would_be_truncated(self, trained, tmp_path):
        """A float `cache/oseq` is refused with the tensor named, where its
        cast to the stored int64 would truncate it into a file that loads;
        the target file is left as it was."""
        corpus, _, model, cache, path = trained
        target = tmp_path / "x.ckpt"
        target.write_bytes(open(path, "rb").read())
        before = target.read_bytes()
        bad = _rebuilt(cache, oseq=cache.oseq.flat + 0.7)
        loc_ids = [r.loc_id for r in corpus.locations]
        with pytest.raises(ContractViolation, match=r"cast safely.*\['cache/oseq'\]"):
            save_checkpoint(str(target), model, bad, loc_ids, corpus.users)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    @pytest.mark.parametrize("kind", ["users", "locations"])
    def test_duplicate_ids_are_refused(self, trained, tmp_path, capsys, kind):
        """A header whose index 1 repeats index 0's id is not loaded (exit 2),
        where a query by that id would have answered from index 1's row; a
        save with repeated ids is a contract violation (exit 1)."""
        corpus, _, model, cache, path = trained
        _, fields, payload = split_checkpoint(open(path, "rb").read())
        ids = fields["ids"][kind]
        ids[1] = ids[0]
        bad = tmp_path / "dup.ckpt"
        bad.write_bytes(join_checkpoint(fields, payload))
        users, locs = fields["ids"]["users"], fields["ids"]["locations"]
        rc = main(["predict", "--checkpoint", str(bad),
                   "--user", users[0], "--origin", locs[0], "--prev-dest", locs[2]])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and f"duplicate {kind[:-1]} ids" in err
        loc_ids = [r.loc_id for r in corpus.locations]
        user_ids = list(corpus.users)
        (user_ids if kind == "users" else loc_ids)[1] = ids[0]
        target = str(tmp_path / "out.ckpt")
        assert guarded(save_checkpoint, target, model, cache, loc_ids, user_ids) == 1
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_format_version_is_2(self, trained, tmp_path, capsys, version):
        """Format 3 stored a tensor table and the per-user lists in its
        header; format 2 held no attention keys; format 1 predates the
        aligned, mapped payload."""
        _, fields, payload = split_checkpoint(open(trained[-1], "rb").read())
        old = tmp_path / "old.ckpt"
        old.write_bytes(join_checkpoint(fields, payload, magic=f"ODNEXT-CKPT {version}"))
        rc = main(["predict", "--checkpoint", str(old),
                   "--user", "U0000", "--origin", "L000", "--prev-dest", "L001"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and f"version {version}" in err
        assert "train again" in err

    @pytest.mark.parametrize("key,value", [("cache/oseq", 8), ("cache/dseq", -1)])
    def test_out_of_range_payload_location_is_2(self, trained, tmp_path, capsys, key, value):
        """The last element of a cached sequence, read from the mapped
        payload, is range-checked like the first."""
        _, fields, payload = split_checkpoint(open(trained[-1], "rb").read())
        payload = bytearray(payload)
        rows = len(stored_arrays(load_checkpoint(trained[-1]))[key])
        int64s(payload, tensor_offsets(trained[-1])[key], rows)[-1] = value
        bad = tmp_path / "range.ckpt"
        bad.write_bytes(join_checkpoint(fields, bytes(payload)))
        with pytest.raises(CheckpointFormatError, match="cached location outside"):
            load_checkpoint(str(bad))
        rc = main(["predict", "--checkpoint", str(bad),
                   "--user", "U0000", "--origin", "L000", "--prev-dest", "L001"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


_INT64 = st.integers(-(2**63), 2**63 - 1)


@given(
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
               elements=_INT64 | st.integers(-2, 9)),
    st.integers(0, 2**63 - 1) | st.integers(0, 9),
)
@example(np.array([-(2**63)]), 5)
@example(np.array([2**63 - 1]), 2**63 - 1)
@example(np.array([0, 2**63 - 2]), 2**63 - 1)
@example(np.zeros(0, dtype=np.int64), 0)
@example(np.array([3, -1], dtype=">i8"), 5)
@example(np.array([3, 4], dtype=">i8"), 5)
def test_in_range_is_the_min_max_test(idx, n):
    assert in_range(idx, n) == (idx.size == 0 or 0 <= idx.min() <= idx.max() < n)


@given(st.integers(0, 9), st.data())
def test_in_range_reads_a_mapped_cache_array(trained, n, data):
    """The loader range-checks the payload's little-endian int64 views as
    they are mapped, as read or with a value written into the private
    mapping."""
    seq = load_checkpoint(trained[-1]).cache.oseq.flat
    assert seq.dtype.str == "<i8" and not seq.flags.owndata
    if data.draw(st.booleans()):
        seq[data.draw(st.integers(0, len(seq) - 1))] = data.draw(_INT64)
    assert in_range(seq, n) == (0 <= seq.min() <= seq.max() < n)


class _FullDisk:
    """A file whose writes after the first fail, as on a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        if self.f.tell():
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)


class TestSave:
    def test_saving_over_a_loaded_checkpoint_keeps_its_predictions(self, trained, tmp_path):
        """The old file is replaced, not rewritten: a bundle mapped from it
        keeps predicting from the old bytes, including pages it had not yet
        touched when the new file was saved."""
        corpus, split, model, cache, path = trained
        served = tmp_path / "served.ckpt"
        served.write_bytes(open(path, "rb").read())
        bundle = load_checkpoint(str(served))
        other = Model(ModelConfig(dim=5, hdim=6, seed=11), model.vocab, model.tables)
        other_cache = other.build_cache(split.train)
        loc_ids = [r.loc_id for r in corpus.locations]
        save_checkpoint(str(served), other, other_cache, loc_ids, corpus.users)
        queries = build_test_queries(split)
        assert evaluate(ModelRanker(bundle.model, bundle.cache), queries) == evaluate(
            ModelRanker(model, cache), queries
        )
        for user in range(len(corpus.users)):
            if cache.n_train[user] >= 2:
                expect = model.predict_batch(cache, user, [0, 1], [2, 3])
                got = bundle.model.predict_batch(bundle.cache, user, [0, 1], [2, 3])
                assert np.array_equal(got, expect)
        reloaded = load_checkpoint(str(served))
        for name, p in other.params.items():
            np.testing.assert_array_equal(reloaded.model.params[name].value, p.value)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_the_save_map_names_exactly_the_declared_tensors(self, trained, variant):
        _, split, model, _, _ = trained
        cfg = ModelConfig(dim=5, hdim=6, seed=2, variant=variant)
        fresh = Model(cfg, model.vocab, model.tables)
        stored = checkpoint_module._stored_arrays(fresh, fresh.build_cache(split.train))
        fixed, per_row = checkpoint_module._expected_tensors(
            cfg, model.vocab, model_module.param_specs(cfg, model.vocab)
        )
        assert sorted(stored) == sorted(name for name, _, _ in fixed + per_row)

    def test_params_in_another_order_save_the_same_bytes(self, trained, tmp_path):
        """The save writes the declared tensors by name, in the declared
        order, whatever the order of the model's parameter dict."""
        corpus, _, model, cache, path = trained
        values = {name: p.value for name, p in model.params.items()}
        reordered = Model(model.config, model.vocab, model.tables, dict(reversed(values.items())))
        assert list(reordered.params) != list(model.params)
        target = tmp_path / "reordered.ckpt"
        save_checkpoint(str(target), reordered, cache, [r.loc_id for r in corpus.locations],
                        corpus.users)
        assert target.read_bytes() == open(path, "rb").read()
        assert list(load_checkpoint(str(target)).model.params) == list(model.params)

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_save_leaves_the_old_file(self, trained, tmp_path, monkeypatch, failure):
        corpus, _, model, cache, _ = trained
        loc_ids = [r.loc_id for r in corpus.locations]
        target = tmp_path / "model.ckpt"
        save_checkpoint(str(target), model, cache, loc_ids, corpus.users)
        probe = tmp_path / "probe"
        open(probe, "wb").close()
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(probe.stat().st_mode)
        before = target.read_bytes()

        if failure == "write":
            monkeypatch.setattr(
                checkpoint_module, "open", lambda *a: _FullDisk(open(*a)), raising=False
            )
        else:
            def refuse(src, dst):
                raise OSError(errno.EXDEV, "Invalid cross-device link")

            monkeypatch.setattr(checkpoint_module.os, "replace", refuse)
        assert guarded(save_checkpoint, str(target), model, cache, loc_ids, corpus.users) == 2
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "probe"]
