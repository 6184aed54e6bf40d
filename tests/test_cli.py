"""End-to-end command-line pipeline plus exit-code contracts."""

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odnext.cli import config_sha256, main, parse_synth_config, parse_train_config
from odnext.nn import ContractViolation

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
    "min_trips": 2,
    "min_users": 2,
}


def _drop_location(fields):
    fields["ids"]["locations"].pop()
    fields["vocab"]["loc_geohash"].pop()


def _set_geohash(value):
    def edit(fields):
        fields["vocab"]["loc_geohash"][0] = value

    return edit


def _shift_n_train(delta):
    def edit(fields):
        n_train = fields["cache"]["n_train"]
        n_train[next(u for u, n in enumerate(n_train) if n >= 2)] += delta

    return edit


def _halve_state_width(fields):
    spec = next(t for t in fields["tensors"] if t["name"] == "cache/states/0")
    rows, width = spec["shape"]
    spec["shape"] = [rows * 2, width // 2]


def _set_cache(key, value):
    def edit(fields):
        entry = fields["cache"][key]
        if isinstance(entry[0], list):
            entry = next(seq for seq in entry if seq)
        entry[0] = value

    return edit


def _fractional_shape(fields):
    fields["tensors"][0]["shape"][0] += 0.5


# header edits that leave the payload as written, so the file disagrees
# with itself
HEADER_PAYLOAD_MISMATCHES = {
    "location-dropped": _drop_location,
    "geohash-999": _set_geohash(999),
    "geohash-negative": _set_geohash(-1),
    "n_train-plus-1": _shift_n_train(1),
    "n_train-minus-1": _shift_n_train(-1),
    "state-width": _halve_state_width,
    "oseq-location-999": _set_cache("oseq", 999),
    "dseq-location-negative": _set_cache("dseq", -1),
    "last_dest-999": _set_cache("last_dest", 999),
    "fractional-shape": _fractional_shape,
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

    def test_corrupt_checkpoint_is_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage\n{}\n")
        rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("key", ["config", "ids", "vocab", "scales", "cache", "tensors"])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_checkpoint_missing_header_key_is_2(self, pipeline, tmp_path, capsys, key, command):
        magic, header, payload = pipeline["ckpt"].read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        del fields[key]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), payload]))
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
        [("config", "lr", -1.0), ("cache", "n_train", "abc"), ("cache", "oseq", [["x"]])],
    )
    def test_checkpoint_invalid_header_value_is_2(
        self, pipeline, tmp_path, capsys, section, key, value
    ):
        magic, header, payload = pipeline["ckpt"].read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields[section][key] = value
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), payload]))
        rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("mismatch", sorted(HEADER_PAYLOAD_MISMATCHES))
    def test_checkpoint_header_payload_mismatch_is_2(self, pipeline, tmp_path, capsys, mismatch):
        magic, header, payload = pipeline["ckpt"].read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        HEADER_PAYLOAD_MISMATCHES[mismatch](fields)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), payload]))
        rc = main(["eval", "--checkpoint", str(bad), "--test", str(pipeline["test"])])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_checkpoint_is_2(self, pipeline, tmp_path, data):
        """A checkpoint whose header or payload length was mutated ends in
        exit 2 with an `error:` line, with no traceback and no allocation
        beyond the file's own size (plus a fixed margin for the header)."""
        magic, header, payload = pipeline["ckpt"].read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        tensors = fields["tensors"]
        n_train = fields["cache"]["n_train"]
        index = st.integers(0, len(tensors) - 1)
        kind = data.draw(
            st.sampled_from(["name", "shape", "order", "n_train", "truncate", "append"]), "kind"
        )
        if kind == "name":
            t = tensors[data.draw(index, "tensor")]
            names = st.sampled_from([u["name"] for u in tensors]) | st.text(max_size=20)
            t["name"] = data.draw(names.filter(lambda n: n != t["name"]), "new name")
        elif kind == "shape":
            t = tensors[data.draw(index, "tensor")]
            sizes = st.integers(0, 10**6) | st.just(10**12)
            if t["shape"] and data.draw(st.booleans(), "one dimension"):
                new = list(t["shape"])
                new[data.draw(st.integers(0, len(new) - 1), "dim")] = data.draw(sizes, "size")
            else:
                new = data.draw(st.lists(sizes, max_size=3), "shape")
            if new == t["shape"]:
                new = new + [1]
            t["shape"] = new
        elif kind == "order":
            i = data.draw(index, "first")
            j = data.draw(index.filter(lambda j: j != i), "second")
            tensors[i], tensors[j] = tensors[j], tensors[i]
        elif kind == "n_train":
            u = data.draw(st.integers(0, len(n_train) - 1), "user")
            values = st.integers(-3, 10**6) | st.just(10**12) | st.integers(-(10**20), 10**20)
            n_train[u] = data.draw(values.filter(lambda n: n != n_train[u]), "n_train")
        elif kind == "truncate":
            payload = payload[: -data.draw(st.integers(1, len(payload)), "cut")]
        else:
            payload += data.draw(st.binary(min_size=1, max_size=64), "tail")
        blob = b"\n".join([magic, json.dumps(fields).encode(), payload])
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

    def test_synth_config_types(self):
        with pytest.raises(ContractViolation):
            parse_synth_config({"bogus": 1})
        with pytest.raises(ContractViolation):
            parse_synth_config({"n_users": 1.5})
        with pytest.raises(ContractViolation):
            parse_synth_config({"p_noise": 2.0})
        assert parse_synth_config({"n_users": 20, "n_locations": 6, "n_clusters": 3}).n_users == 20
