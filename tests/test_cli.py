"""End-to-end command-line pipeline plus exit-code contracts."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odnext.cli import (
    STUDY_METHODS,
    TrainRunConfig,
    config_sha256,
    main,
    parse_overrides,
    parse_train_config,
)
from odnext.checkpoint import load_checkpoint
from odnext.data import build_test_queries, chronological_split, load_corpus, save_corpus
from odnext.evaluation import (
    STUDY_MODEL,
    STUDY_SYNTH,
    ModelRanker,
    evaluate,
    fit_ranker,
    mean_reports,
    prepare_split,
    study_seed,
)
from odnext.geo import N_TIMESLOTS
from odnext.model import VARIANTS, ModelConfig
from odnext.nn import ContractViolation, settings as declared_settings
from odnext.synth import SynthConfig

from helpers import corpus_from, int64s, join_checkpoint, split_checkpoint, tensor_offsets

SYNTH_CFG = {
    "n_users": 12,
    "n_locations": 8,
    "n_clusters": 4,
    "trips_per_user": 8,
    "p_noise": 0.1,
    "seed": 3,
}
TRAIN_CFG = {
    "dim": 5,
    "hdim": 6,
    "lr": 0.01,
    "epochs": 2,
    "seed": 0,
}


def _drop_location(fields, payload, at):
    fields["ids"]["locations"].pop()


def _set_int64(key, value):
    """An edit of the first int64 of tensor `key`."""

    def edit(fields, payload, at):
        int64s(payload, at[key], 1)[0] = value

    return edit


def _n_train(fields, payload, at):
    """The stored n_train, as a view that edits the payload."""
    return int64s(payload, at["cache/n_train"], len(fields["ids"]["users"]))


def _shift_n_train(delta):
    def edit(fields, payload, at):
        n_train = _n_train(fields, payload, at)
        n_train[np.flatnonzero(n_train >= 2)[0]] += delta

    return edit


def _wrap_n_train(fields, payload, at):
    """Four users' n_train each raised by 2**62: the sum of the history
    lengths wraps past int64 back to the stored total."""
    n_train = _n_train(fields, payload, at)
    n_train[np.flatnonzero(n_train >= 2)[:4]] += 2**62


def _short_payload(fields, payload, at):
    del payload[-8:]


def _long_payload(fields, payload, at):
    payload += bytes(8)


def _set_timeslots(value):
    def edit(fields, payload, at):
        fields["vocab"]["n_timeslots"] = value

    return edit


# edits of the header or of the payload bytes (a bytearray), each in place,
# given where each tensor starts in the payload, after which the file
# disagrees with itself
HEADER_PAYLOAD_MISMATCHES = {
    "location-dropped": _drop_location,
    "geohash-999": _set_int64("vocab/loc_geohash", 999),
    "geohash-negative": _set_int64("vocab/loc_geohash", -1),
    "n_train-plus-1": _shift_n_train(1),
    "n_train-minus-1": _shift_n_train(-1),
    "n_train-wraps-int64": _wrap_n_train,
    "payload-short": _short_payload,
    "payload-long": _long_payload,
    "oseq-location-999": _set_int64("cache/oseq", 999),
    "dseq-location-negative": _set_int64("cache/dseq", -1),
    "last_dest-999": _set_int64("cache/last_dest", 999),
    "n_timeslots-3": _set_timeslots(3),
    "n_timeslots-string": _set_timeslots("8"),
    "n_timeslots-fraction": _set_timeslots(8.5),
}


def kv(output):
    pairs = {}
    for line in output.strip().splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            pairs[k] = v
    return pairs


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, capsys=None):
    """Run synth -> preprocess -> train once; return the artifact paths."""
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "synth_cfg": d / "synth.json",
        "train_cfg": d / "train.json",
        "trips": d / "trips.csv",
        "locs": d / "locs.csv",
        "p_trips": d / "trips.pp.csv",
        "p_locs": d / "locs.pp.csv",
        "ckpt": d / "model.ckpt",
        "test": d / "test.csv",
        "manifest": d / "manifest.json",
        "dir": d,
    }
    paths["synth_cfg"].write_text(json.dumps(SYNTH_CFG))
    paths["train_cfg"].write_text(json.dumps(TRAIN_CFG))
    assert (
        main(
            [
                "synth",
                "--config", str(paths["synth_cfg"]),
                "--out-trips", str(paths["trips"]),
                "--out-locations", str(paths["locs"]),
                "--manifest", str(paths["manifest"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "preprocess",
                "--trips", str(paths["trips"]),
                "--locations", str(paths["locs"]),
                "--out-trips", str(paths["p_trips"]),
                "--out-locations", str(paths["p_locs"]),
                "--min-trips", "2",
                "--min-users", "2",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--config", str(paths["train_cfg"]),
                "--trips", str(paths["p_trips"]),
                "--locations", str(paths["p_locs"]),
                "--out", str(paths["ckpt"]),
                "--out-test", str(paths["test"]),
            ]
        )
        == 0
    )
    return paths


class TestPipeline:
    def test_synth_report(self, pipeline, capsys):
        rc = main(
            [
                "synth",
                "--config", str(pipeline["synth_cfg"]),
                "--out-trips", str(pipeline["dir"] / "t2.csv"),
                "--out-locations", str(pipeline["dir"] / "l2.csv"),
            ]
        )
        out = kv(capsys.readouterr().out)
        assert rc == 0
        assert out["n_users"] == "12"
        assert out["n_locations"] == "8"
        assert float(out["oracle_accuracy"]) == pytest.approx(1 - 0.1 * (1 - 1 / 8))

    def test_train_report_and_checkpoint(self, pipeline, capsys):
        # re-train to capture the report; checkpoint must be reproduced
        out2 = pipeline["dir"] / "model2.ckpt"
        rc = main(
            [
                "train",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--out", str(out2),
            ]
        )
        out = kv(capsys.readouterr().out)
        assert rc == 0
        assert out["variant"] == "stod-ppa"
        assert float(out["final_loss"]) > 0
        assert pipeline["ckpt"].read_bytes() == out2.read_bytes()

    def test_eval_reports_metrics(self, pipeline, capsys):
        rc = main(
            ["eval", "--checkpoint", str(pipeline["ckpt"]), "--test", str(pipeline["test"])]
        )
        out = kv(capsys.readouterr().out)
        assert rc == 0
        for key in ("acc1", "acc5", "acc10", "map"):
            assert 0.0 <= float(out[key]) <= 1.0
        assert int(out["n_queries"]) > 0

    def test_predict_ranks_and_explains(self, pipeline, capsys):
        rc = main(
            [
                "predict",
                "--checkpoint", str(pipeline["ckpt"]),
                "--user", "U0000",
                "--origin", "L000",
                "--prev-dest", "L001",
                "--top", "3",
                "--explain",
            ]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        ranked = [l for l in out if not l.startswith("attn")]
        attn = [l for l in out if l.startswith("attn")]
        assert len(ranked) == 3
        probs = []
        for pos, line in enumerate(ranked, start=1):
            rank_s, loc_id, prob_s = line.split()
            assert int(rank_s) == pos
            assert loc_id.startswith("L")
            probs.append(float(prob_s))
        assert probs == sorted(probs, reverse=True)
        assert attn and all("%" in l for l in attn)

    def test_explain_leaves_the_ranked_lines_as_they_are(self, pipeline, capsys):
        query = [
            "predict", "--checkpoint", str(pipeline["ckpt"]),
            "--user", "U0003", "--origin", "L002", "--prev-dest", "L005", "--top", "8",
        ]
        assert main(query) == 0
        plain = capsys.readouterr().out
        assert main([*query, "--explain"]) == 0
        explained = capsys.readouterr().out
        ranked = [l for l in explained.splitlines(keepends=True) if not l.startswith("attn")]
        assert len(plain.splitlines()) == 8
        assert "".join(ranked) == plain

    def test_report_file_matches_stdout(self, pipeline, capsys):
        report = pipeline["dir"] / "eval.report"
        main(
            [
                "eval",
                "--checkpoint", str(pipeline["ckpt"]),
                "--test", str(pipeline["test"]),
                "--report", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert report.read_text() == out

    def test_report_file_survives_a_closed_stdout(self, pipeline, capsys, monkeypatch):
        """`eval ... --report r.txt | head -1`: the reader may close the pipe
        before the report is printed, and the file still holds it all."""

        class ClosedPipe(io.StringIO):
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

        report = pipeline["dir"] / "closed.report"
        args = ["eval", "--checkpoint", str(pipeline["ckpt"]), "--test", str(pipeline["test"])]
        assert main(args) == 0
        full = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main([*args, "--report", str(report)]) == 2
        assert report.read_text() == full
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: [Errno 32] Broken pipe"
        assert sum(line.startswith("error:") for line in err) == 1

    def test_ablate_covers_model_and_baselines(self, pipeline, capsys):
        rc = main(
            [
                "ablate",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--variants", "decoder-only,top,u-top",
                "--seeds", "0",
            ]
        )
        out = kv(capsys.readouterr().out)
        assert rc == 0
        for v in ("decoder-only", "top", "u-top"):
            assert 0.0 <= float(out[f"{v}.acc1"]) <= 1.0

    def test_ablate_prints_the_seed_means_of_fit_ranker(self, pipeline, capsys):
        rc = main(
            [
                "ablate",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--variants", "stod-ppa,od-lstm,taxi",
                "--seeds", "0,1",
            ]
        )
        out = kv(capsys.readouterr().out)
        assert rc == 0
        cfg = parse_train_config(TRAIN_CFG)
        corpus = load_corpus(str(pipeline["p_trips"]), str(pipeline["p_locs"]))
        split, vocab, tables = prepare_split(corpus, cfg.model, cfg.train_ratio)
        queries = build_test_queries(split)
        for method in ("stod-ppa", "od-lstm", "taxi"):
            mean = mean_reports([
                evaluate(
                    fit_ranker(method, replace(cfg.model, seed=seed), split, vocab, tables),
                    queries,
                )
                for seed in (0, 1)
            ])
            for key in ("acc1", "acc5", "acc10", "map"):
                assert out[f"{method}.{key}"] == f"{mean[key]:.6f}"

    def test_sweep(self, pipeline, capsys):
        rc = main(
            [
                "sweep",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--param", "epochs",
                "--values", "0,1",
            ]
        )
        out = kv(capsys.readouterr().out)
        assert rc == 0
        assert "epochs[0].acc1" in out and "epochs[1].acc1" in out

    def test_module_entry_point(self, pipeline):
        proc = subprocess.run(
            [sys.executable, "-m", "odnext", "eval",
             "--checkpoint", str(pipeline["ckpt"]), "--test", str(pipeline["test"])],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "acc1=" in proc.stdout


def test_eval_chains_tied_trips_in_file_order(tmp_path, capsys):
    """Trips with equal timestamps keep their file order, in `load_corpus`
    (and so in `build_test_queries`) and in `odnext eval` alike."""
    rng = np.random.default_rng(0)
    rows = []
    for u in range(3):
        for k in range(6):
            t = 3600 * (8 * u + k)
            rows.append((u, int(rng.integers(8)), int(rng.integers(8)), t, t + 600))
        t += 3600  # two tied test trips, listed against location-index order
        rows += [(u, 7, 6, t, t + 600), (u, 1, 2, t, t + 600)]
    trips, locs = str(tmp_path / "trips.csv"), str(tmp_path / "locs.csv")
    save_corpus(corpus_from(rows, 8), trips, locs)
    # trained until the origin moves the ranking, so the chain shows in MAP
    (tmp_path / "train.json").write_text(json.dumps({**TRAIN_CFG, "lr": 0.05, "epochs": 10}))
    ckpt, test = str(tmp_path / "m.ckpt"), str(tmp_path / "test.csv")
    assert main([
        "train", "--config", str(tmp_path / "train.json"), "--trips", trips,
        "--locations", locs, "--out", ckpt, "--out-test", test,
    ]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--test", test]) == 0
    out = kv(capsys.readouterr().out)

    bundle = load_checkpoint(ckpt)
    split = chronological_split(load_corpus(trips, locs), 0.7)
    report = evaluate(ModelRanker(bundle.model, bundle.cache), build_test_queries(split))
    assert report.n_queries == 6
    for key, value in report.as_dict().items():
        assert out[key] == (f"{value:.6f}" if isinstance(value, float) else str(value)), key


@pytest.fixture(scope="module")
def short_history(tmp_path_factory):
    """(train config, trips, locations, checkpoint, test file) of a run in
    which some users keep one training trip, and so have no encoder states."""
    d = tmp_path_factory.mktemp("short")
    # the cold users have 3-9 trips; a 3-trip user keeps ceil(0.9) = 1
    synth = {"n_users": 12, "n_locations": 12, "n_clusters": 3, "trips_per_user": 10,
             "n_cold_users": 8, "seed": 0}
    (d / "synth.json").write_text(json.dumps(synth))
    train_cfg = str(d / "train.json")
    (d / "train.json").write_text(
        json.dumps({"dim": 4, "hdim": 4, "epochs": 1, "lr": 0.01, "train_ratio": 0.3})
    )
    trips, locs = str(d / "trips.csv"), str(d / "locs.csv")
    ckpt, test = str(d / "m.ckpt"), str(d / "test.csv")
    assert main([
        "synth", "--config", str(d / "synth.json"),
        "--out-trips", trips, "--out-locations", locs,
    ]) == 0
    assert main([
        "train", "--config", train_cfg, "--trips", trips, "--locations", locs,
        "--out", ckpt, "--out-test", test,
    ]) == 0
    return train_cfg, trips, locs, ckpt, test


def test_eval_and_ablate_skip_users_without_encoder_states(short_history, capsys):
    """A user with one training trip has no encoder states.  `eval` counts
    that user's test rows as skipped and `build_test_queries` gives the
    user no queries, so both commands finish, and `eval` agrees with
    scoring in process."""
    train_cfg, trips, locs, ckpt, test = short_history
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--test", test]) == 0
    out = kv(capsys.readouterr().out)
    assert main([
        "ablate", "--config", train_cfg, "--trips", trips, "--locations", locs,
        "--variants", "stod-ppa,od-lstm,top",
    ]) == 0
    ablate = kv(capsys.readouterr().out)
    assert {"stod-ppa.acc1", "od-lstm.acc1", "top.acc1"} <= ablate.keys()

    bundle = load_checkpoint(ckpt)
    split = chronological_split(load_corpus(trips, locs), 0.3)
    short = [u for u, t in enumerate(split.train.trips_by_user) if len(t) < 2]
    assert any(split.test.trips_by_user[u] for u in short)
    report = evaluate(ModelRanker(bundle.model, bundle.cache), build_test_queries(split))
    report.n_skipped = sum(len(split.test.trips_by_user[u]) for u in short)
    for key, value in report.as_dict().items():
        assert out[key] == (f"{value:.6f}" if isinstance(value, float) else str(value)), key


@pytest.mark.parametrize("explain", [[], ["--explain"]], ids=["plain", "explain"])
def test_predict_names_a_user_without_encoder_states(short_history, capsys, explain):
    """`predict` for a user with under two training trips is refused with
    exit 1 and one `error:` line naming the user and the trip count."""
    ckpt = short_history[3]
    bundle = load_checkpoint(ckpt)
    u = int(np.flatnonzero(bundle.cache.n_train < 2)[0])
    user, loc = bundle.user_ids[u], bundle.location_ids[0]
    capsys.readouterr()
    argv = ["predict", "--checkpoint", ckpt, "--user", user, "--origin", loc, "--prev-dest", loc]
    assert main(argv + explain) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: user {user!r} has {bundle.cache.n_train[u]} training trip(s); predict needs 2\n"
    )


TINY_STUDY = {
    "n_users": 20, "n_locations": 12, "n_clusters": 3, "trips_per_user": 12,
    "n_cold_users": 5, "n_user_types": 20,
}


class TestStudyScript:
    """`odnext study`, the multi-seed synthetic study."""

    def test_overrides_reach_the_study(self, tmp_path, capsys):
        (tmp_path / "synth.json").write_text(json.dumps(TINY_STUDY))
        (tmp_path / "train.json").write_text(json.dumps({"epochs": 1, "dim": 8}))
        rc = main([
            "study", "--seeds", "1",
            "--synth", str(tmp_path / "synth.json"),
            "--train", str(tmp_path / "train.json"),
        ])
        out = kv(capsys.readouterr().out)
        assert rc == 0
        study = study_seed(
            replace(STUDY_SYNTH, **TINY_STUDY, seed=1),
            replace(STUDY_MODEL, epochs=1, dim=8, seed=1),
            STUDY_METHODS,
        )
        assert set(study.reports) == set(STUDY_METHODS)
        for method, report in study.reports.items():
            assert out[f"seed1.{method}.acc1"] == f"{report.acc1:.6f}"
            for key, value in mean_reports([report]).items():
                assert out[f"{method}.{key}"] == f"{value:.6f}"
        assert out["oracle_accuracy"] == f"{study.oracle_accuracy:.6f}"
        model_acc, top_acc, n = study.cold
        assert (out["cold.n_queries"], out["cold.model_acc1"], out["cold.top_acc1"]) == (
            str(n), f"{model_acc:.6f}", f"{top_acc:.6f}"
        )

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        (tmp_path / "synth.json").write_text(json.dumps(TINY_STUDY))
        (tmp_path / "train.json").write_text(json.dumps({"epochs": 1, "dim": 4, "hdim": 4}))
        outs = []
        for run in ("a", "b"):
            rc = main([
                "study", "--seeds", "0,2",
                "--synth", str(tmp_path / "synth.json"),
                "--train", str(tmp_path / "train.json"),
                "--report", str(tmp_path / f"{run}.txt"),
            ])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.txt").read_text() == outs[0]
        assert {"seed0.taxi.acc1", "seed2.taxi.acc1", "cold.n_queries"} <= kv(outs[0]).keys()

    @pytest.mark.parametrize("cold", [{"n_cold_users": 0}, {"cold_trips_max": 1}])
    def test_no_cold_query_leaves_out_the_cold_lines(self, tmp_path, capsys, cold):
        # a cold user's first trip is context only, so one-trip users have no query
        (tmp_path / "synth.json").write_text(
            json.dumps({**TINY_STUDY, "cold_trips_min": 1, **cold})
        )
        (tmp_path / "train.json").write_text(json.dumps({"epochs": 1, "dim": 4, "hdim": 4}))
        rc = main([
            "study", "--seeds", "0",
            "--synth", str(tmp_path / "synth.json"),
            "--train", str(tmp_path / "train.json"),
        ])
        out = kv(capsys.readouterr().out)
        assert rc == 0
        assert "stod-ppa.map" in out
        assert not [key for key in out if key.startswith("cold.")]

    @pytest.mark.parametrize(
        "flag, override, message",
        [
            ("--synth", {"n_clusters": 1},
             "configuration key 'n_clusters' must be an integer >= 2"),
            ("--synth", {"n_users": 2.5}, "configuration key 'n_users' must be an integer >= 1"),
            ("--train", {"dim": True}, "configuration key 'dim' must be an integer >= 1"),
            ("--train", {"min_trips": 3}, "unknown configuration keys: ['min_trips']"),
            ("--train", {"train_ratio": 0.5}, "unknown configuration keys: ['train_ratio']"),
        ],
    )
    def test_bad_override_is_1(self, tmp_path, capsys, flag, override, message):
        (tmp_path / "o.json").write_text(json.dumps(override))
        rc = main(["study", "--seeds", "0", flag, str(tmp_path / "o.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--synth", "--train"])
    def test_seed_override_is_1(self, tmp_path, capsys, flag):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"seed": 4}))
        rc = main(["study", flag, str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {path}: the seed comes from --seeds\n"


class TestExitCodes:
    def test_missing_file_is_2(self, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"), "--test", "x.csv"])
        capsys.readouterr()
        assert rc == 2

    def test_malformed_json_config_is_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = main(
            [
                "train",
                "--config", str(bad),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        capsys.readouterr()
        assert rc == 2

    def test_malformed_csv_is_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trip,file\n")
        rc = main(
            [
                "train",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(bad),
                "--locations", str(pipeline["p_locs"]),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        capsys.readouterr()
        assert rc == 2

    def test_timestamp_outside_int64_is_2(self, pipeline, tmp_path, capsys):
        """A pickup below int64's range ends in one `path:line:` error line,
        not in an OverflowError from the time-slot arithmetic."""
        lines = pipeline["p_trips"].read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = str(-(10**20))
        bad = tmp_path / "trips.csv"
        bad.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        rc = main(
            [
                "train",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(bad),
                "--locations", str(pipeline["p_locs"]),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}:2: timestamps must lie in ")
        assert err.count("\n") == 1

    def test_unknown_location_id_names_its_line_and_is_2(self, tmp_path, capsys):
        trips, locs = tmp_path / "t1.csv", tmp_path / "l1.csv"
        trips.write_text("user_id,origin_id,dest_id,pickup_ts,dropoff_ts\nu,A,A,1,2\nu,A,Z,3,4\n")
        locs.write_text("loc_id,lat,lon\nA,40.0,-74.0\n")
        rc = main(
            [
                "preprocess", "--trips", str(trips), "--locations", str(locs),
                "--out-trips", str(tmp_path / "o.csv"),
                "--out-locations", str(tmp_path / "ol.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {trips}:3: unknown loc_id 'Z'\n"

    @pytest.mark.parametrize("command", ["preprocess", "eval"])
    def test_over_long_csv_field_is_2_and_names_its_line(self, pipeline, tmp_path, command):
        """A field over the csv module's size limit ends in one `path:line:`
        error line, not in a traceback, and the limit stays as it is."""
        source = pipeline["trips" if command == "preprocess" else "test"]
        header, first = source.read_text().splitlines()[:2]
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{'u' * 200_000}{first[first.index(','):]}\n")
        args = {
            "preprocess": [
                "--trips", str(bad), "--locations", str(pipeline["locs"]),
                "--out-trips", str(tmp_path / "o.csv"),
                "--out-locations", str(tmp_path / "ol.csv"),
            ],
            "eval": ["--checkpoint", str(pipeline["ckpt"]), "--test", str(bad)],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-m", "odnext", command, *args], capture_output=True, text=True
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {bad}:2: field larger than field limit")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["config", "checkpoint"])
    def test_deeply_nested_json_is_2_and_names_the_file(self, pipeline, tmp_path, where):
        """JSON nested deeper than the decoder can recurse, in a config file
        or in a checkpoint's header line, ends in one `error:` line naming
        the file, as a JSON syntax error does."""
        nested = "[" * 100_000
        if where == "config":
            bad = tmp_path / "cfg.json"
            bad.write_text(nested)
            args = [
                "synth", "--config", str(bad),
                "--out-trips", str(tmp_path / "t.csv"),
                "--out-locations", str(tmp_path / "l.csv"),
            ]
        else:
            bad = tmp_path / "bad.ckpt"
            magic = pipeline["ckpt"].read_bytes().split(b"\n", 1)[0]
            bad.write_bytes(magic + b"\n" + nested.encode() + b"\n")
            args = ["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])]
        proc = subprocess.run(
            [sys.executable, "-m", "odnext", *args], capture_output=True, text=True
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {bad}: ")
        assert "recursion" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "t.csv").exists()

    def test_corrupt_checkpoint_is_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage\n{}\n")
        rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("key", ["config", "ids", "vocab", "scales"])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_checkpoint_missing_header_key_is_2(self, pipeline, tmp_path, capsys, key, command):
        _, fields, payload = split_checkpoint(open(pipeline["ckpt"], "rb").read())
        del fields[key]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(join_checkpoint(fields, payload))
        if command == "predict":
            argv = ["predict", "--checkpoint", str(bad),
                    "--user", "U0000", "--origin", "L000", "--prev-dest", "L001"]
        else:
            argv = ["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("config", "lr", -1.0),
            ("ids", "locations", 5),
            ("vocab", "geohash_codes", None),
            ("config", "variant", "lstm"),
            ("vocab", "geohash_codes", 7),
            ("ids", "users", None),
            ("scales", "d_max_km", "far"),
            ("scales", "t_max_hours", [1.0]),
            # each of the wrong JSON type for its setting; 5.0 is the stored
            # dim as a float, which would build the same parameters
            ("config", "dim", 4.0),
            ("config", "epochs", True),
            ("config", "seed", 1.5),
            ("config", "utc_offset_hours", 0.5),
            ("config", "dim", float(TRAIN_CFG["dim"])),
        ],
    )
    def test_checkpoint_invalid_header_value_is_2(
        self, pipeline, tmp_path, capsys, section, key, value
    ):
        _, fields, payload = split_checkpoint(pipeline["ckpt"].read_bytes())
        fields[section][key] = value
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(join_checkpoint(fields, payload))
        rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert key in err, err
        if section == "config":
            assert f"configuration key {key!r} must be " in err, err

    @pytest.mark.parametrize("mismatch", sorted(HEADER_PAYLOAD_MISMATCHES))
    def test_checkpoint_header_payload_mismatch_is_2(self, pipeline, tmp_path, capsys, mismatch):
        _, fields, payload = split_checkpoint(pipeline["ckpt"].read_bytes())
        payload = bytearray(payload)
        HEADER_PAYLOAD_MISMATCHES[mismatch](fields, payload, tensor_offsets(pipeline["ckpt"]))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(join_checkpoint(fields, bytes(payload)))
        rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            "variant",
            "user-dropped",
            "location-added",
            "od-ppa-as-stod-ppa",
            "encoder-only-user-dropped",
        ],
    )
    def test_header_that_moves_the_payload_is_named_as_a_cause(
        self, pipeline, tmp_path, capsys, edit
    ):
        """A header whose config or id counts disagree with the payload
        makes the loader read the index arrays at other offsets, or finds
        the payload too short or too long for it; the refusal (exit 2)
        names the header, not only the bytes read there.  The last two
        edits end in the payload's size: an od-ppa checkpoint relabelled
        stod-ppa is short of the larger encoders' tensors, and an
        encoder-only one with a user dropped keeps that user's rows."""
        ckpt = pipeline["ckpt"]
        trained = {"od-ppa-as-stod-ppa": "od-ppa", "encoder-only-user-dropped": "encoder-only"}
        variant = trained.get(edit)  # a checkpoint of another variant, trained here
        if variant:
            cfg, ckpt = tmp_path / "train.json", tmp_path / f"{variant}.ckpt"
            cfg.write_text(json.dumps({**TRAIN_CFG, "variant": variant}))
            argv = ["train", "--config", str(cfg), "--trips", str(pipeline["p_trips"])]
            assert main([*argv, "--locations", str(pipeline["p_locs"]), "--out", str(ckpt)]) == 0
            capsys.readouterr()
        _, fields, payload = split_checkpoint(ckpt.read_bytes())
        expected = ""
        if edit == "variant":
            fields["config"]["variant"] = "od-ppa"
        elif edit == "od-ppa-as-stod-ppa":
            fields["config"]["variant"] = "stod-ppa"
            expected = "payload truncated at tensor 'tables/spatial'"
        elif edit.endswith("user-dropped"):
            fields["ids"]["users"].pop()
            expected = "trailing bytes" if variant else ""
        else:
            fields["ids"]["locations"].append("extra")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(join_checkpoint(fields, payload))
        rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert expected in err, err
        assert "the header's config or ids may not match the payload" in err, err

    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_checkpoint_is_2(self, pipeline, tmp_path, data):
        """A checkpoint whose header sizes, stored index arrays or payload
        length were mutated ends in exit 2 with an `error:` line, with no
        traceback and no allocation beyond the file's own size (plus a fixed
        margin for the header)."""
        _, fields, payload = split_checkpoint(pipeline["ckpt"].read_bytes())
        payload = bytearray(payload)
        at = tensor_offsets(pipeline["ckpt"])
        ids = fields["ids"]
        n_users, n_loc = len(ids["users"]), len(ids["locations"])
        int64 = st.integers(-3, 10**6) | st.just(10**12) | st.integers(-(2**63), 2**63 - 1)
        kind = data.draw(st.sampled_from(
            ["size", "variant", "ids", "n_train", "last_dest", "loc_geohash", "truncate", "append"]
        ), "kind")
        if kind == "size":
            key = data.draw(st.sampled_from(["dim", "hdim"]), "key")
            sizes = st.integers(1, 10**6) | st.just(10**12)
            fields["config"][key] = data.draw(sizes.filter(lambda n: n != fields["config"][key]))
        elif kind == "variant":
            variants = st.sampled_from(VARIANTS).filter(lambda v: v != fields["config"]["variant"])
            fields["config"]["variant"] = data.draw(variants, "variant")
        elif kind == "ids":
            names = ids[data.draw(st.sampled_from(["users", "locations"]), "ids")]
            if data.draw(st.booleans(), "drop"):
                names.pop()
            else:
                names += [f"extra{i}" for i in range(data.draw(st.integers(1, 3), "added"))]
        elif kind == "n_train":
            n_train = int64s(payload, at["cache/n_train"], n_users)
            u = data.draw(st.integers(0, n_users - 1), "user")
            n_train[u] = data.draw(int64.filter(lambda n: n != n_train[u]), "n_train")
        elif kind == "last_dest":
            # a user with history must end at a location, one without at -1
            last_dest = int64s(payload, at["cache/last_dest"], n_users)
            u = data.draw(st.integers(0, n_users - 1), "user")
            n_train = int64s(payload, at["cache/n_train"], n_users)
            valid = (lambda d: 0 <= d < n_loc) if n_train[u] > 0 else (lambda d: d == -1)
            last_dest[u] = data.draw(int64.filter(lambda d: not valid(d)), "last_dest")
        elif kind == "loc_geohash":
            n_geo = len(fields["vocab"]["geohash_codes"])
            loc_geohash = int64s(payload, at["vocab/loc_geohash"], n_loc)
            i = data.draw(st.integers(0, n_loc - 1), "location")
            loc_geohash[i] = data.draw(int64.filter(lambda g: not 0 <= g < n_geo), "geohash")
        elif kind == "truncate":
            del payload[-data.draw(st.integers(1, len(payload)), "cut") :]
        else:
            payload += data.draw(st.binary(min_size=1, max_size=64), "tail")
        blob = join_checkpoint(fields, bytes(payload))
        bad = tmp_path / "mutated.ckpt"
        bad.write_bytes(blob)

        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert err.getvalue().startswith("error:")
        assert peak < len(blob) + 2**20

    @pytest.mark.parametrize(
        "text", ['{"lr": NaN}', '{"lr": Infinity}', '{"leaky_slope": NaN}',
                 '{"leaky_slope": Infinity}']
    )
    def test_non_finite_train_config_is_1(self, pipeline, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(
            [
                "train",
                "--config", str(cfg),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "text", ['{"p_stay": NaN}', '{"p_next": -Infinity}', '{"p_noise": NaN}']
    )
    def test_non_finite_synth_config_is_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(
            [
                "synth",
                "--config", str(cfg),
                "--out-trips", str(tmp_path / "t.csv"),
                "--out-locations", str(tmp_path / "l.csv"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_is_1(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dmi": 8}))
        rc = main(
            [
                "train",
                "--config", str(cfg),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        capsys.readouterr()
        assert rc == 1

    def test_unknown_variant_is_1(self, pipeline, capsys):
        rc = main(
            [
                "ablate",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--variants", "frobnicate",
            ]
        )
        capsys.readouterr()
        assert rc == 1

    def test_unknown_sweep_param_is_1(self, pipeline, capsys):
        rc = main(
            [
                "sweep",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--param", "leaky_slope",
                "--values", "0.1",
            ]
        )
        capsys.readouterr()
        assert rc == 1

    @pytest.mark.parametrize(
        "param, values", [("epochs", "1,1.5"), ("dim", "2.5"), ("hdim", "inf"), ("epochs", "1e400")]
    )
    def test_non_integer_sweep_value_for_integer_field_is_1(self, pipeline, capsys, param, values):
        rc = main(
            [
                "sweep",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--param", param,
                "--values", values,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: configuration key {param!r} must be an integer")
        assert captured.out == ""

    def test_unallocatable_config_is_1(self, pipeline, tmp_path, capsys):
        # numpy refuses an array of this size before allocating any of it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, "dim": 10**15}))
        rc = main([
            "train", "--config", str(cfg),
            "--trips", str(pipeline["p_trips"]), "--locations", str(pipeline["p_locs"]),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: out of memory: Unable to allocate"), captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["ablate", "study"])
    @pytest.mark.parametrize("seeds", ["", "x", "1,,2", "0,1.5"])
    def test_bad_seed_list_is_1_and_names_the_flag(self, pipeline, capsys, command, seeds):
        args = {
            "ablate": [
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]), "--locations", str(pipeline["p_locs"]),
            ],
            "study": [],
        }[command]
        rc = main([command, *args, "--seeds", seeds])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: --seeds takes a comma list of integers, not {seeds!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["ablate", "study"])
    @pytest.mark.parametrize("seeds", ["1,1", "2,1,01"])
    def test_repeated_seed_is_1_and_names_it(self, pipeline, capsys, command, seeds):
        """A repeated seed would train twice, print its keys twice and
        weigh twice in every mean; `1` and `01` are the same seed."""
        args = {
            "ablate": [
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]), "--locations", str(pipeline["p_locs"]),
            ],
            "study": [],
        }[command]
        rc = main([command, *args, "--seeds", seeds])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: --seeds repeats seed 1 in {seeds!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("variants", ["", " , "])
    def test_empty_ablate_variants_is_1(self, pipeline, capsys, variants):
        rc = main(
            [
                "ablate",
                "--config", str(pipeline["train_cfg"]),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--variants", variants,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: no variants given\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("train_ratio", True, "configuration key 'train_ratio' must be a number in (0, 1]"),
            ("train_ratio", 1.5, "configuration key 'train_ratio' must be a number in (0, 1]"),
            # filtering is `odnext preprocess`; the train config has no such key
            ("min_trips", 2, "unknown configuration keys: ['min_trips']"),
        ],
    )
    def test_bad_pipeline_key_is_1(self, pipeline, tmp_path, capsys, command, key, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, key: value}))
        extra = {
            "train": ["--out", str(tmp_path / "m.ckpt")],
            "ablate": ["--variants", "top"],
            "sweep": ["--param", "epochs", "--values", "1"],
        }[command]
        rc = main(
            [
                command,
                "--config", str(cfg),
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                *extra,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
    def test_empty_corpus_is_refused_before_training(self, pipeline, tmp_path, capsys, command):
        trips = tmp_path / "trips.csv"
        trips.write_text(pipeline["p_trips"].read_text().splitlines()[0] + "\n")
        extra = {
            "train": ["--out", str(tmp_path / "m.ckpt")],
            "ablate": [],
            "sweep": ["--param", "epochs", "--values", "1"],
        }[command]
        rc = main([
            command, "--config", str(pipeline["train_cfg"]),
            "--trips", str(trips), "--locations", str(pipeline["p_locs"]), *extra,
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: training corpus has no users\n"
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()

    def test_checkpoint_for_other_timeslot_count_is_2(self, pipeline, tmp_path, capsys):
        """A checkpoint that agrees with itself but was written for another
        number of time slots than `geo.timeslots` yields is not loaded."""
        _, fields, payload = split_checkpoint(pipeline["ckpt"].read_bytes())
        fields["vocab"]["n_timeslots"] = 3
        at = tensor_offsets(pipeline["ckpt"])["param/emb/slot"]
        width = 8 * fields["config"]["dim"]
        payload = payload[: at + 3 * width] + payload[at + N_TIMESLOTS * width :]
        bad = tmp_path / "slots.ckpt"
        bad.write_bytes(join_checkpoint(fields, payload))
        for command in (
            ["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])],
            ["predict", "--checkpoint", str(bad), "--user", "U0000", "--origin", "L000",
             "--prev-dest", "L001"],
        ):
            rc = main(command)
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error:") and "n_timeslots 3" in err

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_non_positive_predict_top_is_1(self, pipeline, capsys, top):
        rc = main([
            "predict", "--checkpoint", str(pipeline["ckpt"]),
            "--user", "U0000", "--origin", "L000", "--prev-dest", "L001", "--top", top,
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: --top must be at least 1, got {top}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, bound",
        [("--min-trips", "0", 1), ("--min-trips", "-5", 1), ("--min-users", "-1", 0)],
    )
    def test_preprocess_threshold_below_its_bound_is_1(
        self, pipeline, tmp_path, capsys, flag, value, bound
    ):
        """A user with no trip left is no user, so `--min-trips` takes an
        integer >= 1 and `--min-users` one >= 0; nothing is written."""
        out_trips, out_locs = tmp_path / "t.csv", tmp_path / "l.csv"
        rc = main([
            "preprocess", "--trips", str(pipeline["trips"]), "--locations", str(pipeline["locs"]),
            "--out-trips", str(out_trips), "--out-locations", str(out_locs), flag, value,
        ])
        captured = capsys.readouterr()
        name = flag[2:].replace("-", "_")
        assert rc == 1
        assert captured.err == f"error: {name} must be at least {bound}, got {value}\n"
        assert captured.out == ""
        assert not out_trips.exists() and not out_locs.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("synth", "n_users", -3),
            ("synth", "n_cold_users", -1),
            ("synth", "n_locations", 0),
            ("study", "n_cold_users", -4),  # the tiny profile has 20 users
        ],
    )
    def test_synth_size_below_its_bound_is_1(self, tmp_path, capsys, command, key, value):
        """A corpus size below its declared bound is refused before any
        corpus is written or any model is trained."""
        cfg = tmp_path / "cfg.json"
        out = ["--out-trips", str(tmp_path / "t.csv"), "--out-locations", str(tmp_path / "l.csv")]
        if command == "synth":
            cfg.write_text(json.dumps({key: value}))
            rc = main(["synth", "--config", str(cfg), *out])
        else:
            cfg.write_text(json.dumps({**TINY_STUDY, key: value}))
            rc = main(["study", "--seeds", "0", "--synth", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: configuration key {key!r} must be ")
        assert captured.err.count("\n") == 1, captured.err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("synth", "seed", -1),
            ("train", "seed", -1),
            ("train", "utc_offset_hours", 10**20),
            # a JSON integer beyond float64 is not a number
            pytest.param("train", "lr", 10**400, id="train-lr-10**400"),
        ],
    )
    def test_out_of_range_config_value_is_1_and_names_the_key(
        self, pipeline, tmp_path, command, key, value
    ):
        cfg = tmp_path / "cfg.json"
        base = SYNTH_CFG if command == "synth" else TRAIN_CFG
        cfg.write_text(json.dumps({**base, key: value}))  # 10**20 stays a JSON integer
        outputs = {
            "synth": ["--out-trips", str(tmp_path / "t.csv"), "--out-locations", str(tmp_path / "l.csv")],
            "train": [
                "--trips", str(pipeline["p_trips"]),
                "--locations", str(pipeline["p_locs"]),
                "--out", str(tmp_path / "m.ckpt"),
            ],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-m", "odnext", command, "--config", str(cfg), *outputs],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("error:") and key in last, last
        assert not (tmp_path / "m.ckpt").exists()

    def test_diverged_training_is_one_error_line(self, pipeline, tmp_path):
        """A learning rate that overflows the forward pass ends in the loss
        check's `error:` line alone: no numpy warning comes before it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, "epochs": 1, "lr": 1e300}))
        proc = subprocess.run(
            [sys.executable, "-m", "odnext", "train", "--config", str(cfg),
             "--trips", str(pipeline["p_trips"]), "--locations", str(pipeline["p_locs"]),
             "--out", str(tmp_path / "m.ckpt")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: training diverged: loss nan at epoch 1, user 'U0007' (index 7)\n"
        ), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_unknown_predict_user_is_1(self, pipeline, capsys):
        rc = main(
            [
                "predict",
                "--checkpoint", str(pipeline["ckpt"]),
                "--user", "nobody",
                "--origin", "L000",
                "--prev-dest", "L001",
            ]
        )
        capsys.readouterr()
        assert rc == 1


class TestConfigParsing:
    def test_sha_is_key_order_invariant(self):
        a = config_sha256({"a": 1, "b": 2.0})
        b = config_sha256({"b": 2.0, "a": 1})
        assert a == b and len(a) == 64

    def test_train_config_types(self):
        with pytest.raises(ContractViolation):
            parse_train_config({"dim": "big"})
        with pytest.raises(ContractViolation):
            parse_train_config({"dim": True})
        with pytest.raises(ContractViolation):
            parse_train_config({"variant": 3})
        with pytest.raises(ContractViolation):
            parse_train_config({"train_ratio": 0.0})
        cfg = parse_train_config({"dim": 8, "lr": 0.001, "train_ratio": 0.8})
        assert cfg.model.dim == 8 and cfg.train_ratio == 0.8

    def test_pipeline_defaults_come_from_the_dataclass(self):
        cfg = parse_train_config({})
        assert cfg == TrainRunConfig(ModelConfig())
        assert cfg.train_ratio == 0.7
        # an integral ratio hashes as the float it is read as
        assert parse_train_config({"train_ratio": 1}).as_dict()["train_ratio"] == 1.0

    def test_model_key_is_unknown(self):
        with pytest.raises(ContractViolation, match="unknown configuration keys: \\['model'\\]"):
            parse_train_config({"model": {"dim": 4}})

    def test_synth_config_types(self):
        with pytest.raises(ContractViolation):
            parse_overrides(SynthConfig(), {"bogus": 1})
        with pytest.raises(ContractViolation):
            parse_overrides(SynthConfig(), {"n_users": 1.5})
        with pytest.raises(ContractViolation):
            parse_overrides(SynthConfig(), {"p_noise": 2.0})
        cfg = parse_overrides(SynthConfig(), {"n_users": 20, "n_locations": 6, "n_clusters": 3})
        assert cfg.n_users == 20


# a value of the wrong JSON type for each kind of config field
WRONG_VALUES = {"int": [1.5, "8", True], "float": ["0.1", False], "str": [3, None]}
# (command, key, declaration) of every setting the train and synth configs take
CONFIG_SETTINGS = [
    (command, name, declared)
    for command, classes in (("train", (ModelConfig, TrainRunConfig)), ("synth", (SynthConfig,)))
    for cls in classes
    for name, declared in declared_settings(cls).items()
]
CONFIG_FIELDS = [(command, name, declared[0]) for command, name, declared in CONFIG_SETTINGS]
# values at the edges of JSON and of float64, and JSON's other types, for every setting
EXTREMES = [2**63, -(2**63), 10**400, 1e308, -1e308, -0.0, math.nan, math.inf, -math.inf, None, []]


def _at_bounds(kind, ge, gt, le, choices) -> list:
    """A setting's choices and a string that is none of them, or each of
    its bounds with the values just below and just above it."""
    if choices is not None:
        return [*choices, "unknown"]
    values = []
    for bound in (b for b in (ge, gt, le) if b is not None):
        if kind == "int":
            values += [bound - 1, bound, bound + 1]
        else:
            values += [math.nextafter(bound, -math.inf), bound, float(bound)]
            values.append(math.nextafter(bound, math.inf))
    return values


@pytest.mark.parametrize("command, name, declared", CONFIG_SETTINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_setting_holds_a_drawn_value_or_names_its_key(command, name, declared, data):
    """Each bound, the values just past it, a wrong JSON type and the
    extremes either build a config that holds the value, which its
    declaration then accepts, or end in a ContractViolation that names the
    key.  Nothing is trained or generated."""
    values = _at_bounds(*declared) + WRONG_VALUES[declared[0]] + EXTREMES
    value = data.draw(st.sampled_from(values), "value")
    try:
        if command == "synth":
            got = getattr(parse_overrides(SynthConfig(), {name: value}), name)
        else:
            cfg = parse_train_config({name: value})
            got = getattr(cfg if name == "train_ratio" else cfg.model, name)
    except ContractViolation as e:
        assert re.search(rf"\b{name}\b", str(e)), str(e)
    else:
        kind, ge, gt, le, choices = declared
        assert type(got) is type(value) and got == value
        if kind == "str":
            assert choices is None or got in choices
        else:
            assert type(got) is not bool
            assert kind == "int" or abs(got) <= sys.float_info.max
            assert ge is None or got >= ge
            assert gt is None or got > gt
            assert le is None or got <= le


@pytest.mark.parametrize("command, name, kind", CONFIG_FIELDS)
def test_wrong_field_type_is_1_and_names_the_key(tmp_path, capsys, command, name, kind):
    outputs = {
        "train": ["--trips", "t.csv", "--locations", "l.csv", "--out", str(tmp_path / "m")],
        "synth": ["--out-trips", str(tmp_path / "t"), "--out-locations", str(tmp_path / "l")],
    }[command]
    for value in WRONG_VALUES[kind]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        assert main([command, "--config", str(cfg), *outputs]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: configuration key {name!r} must be "), err
