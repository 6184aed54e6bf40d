"""Acceptance gate: ten checks, one printed pass/fail line each.

The synthetic directional study (criteria 4, 5 and 9) is expensive, so
one session fixture runs `study_seed` over three seeds (it trains and
tests the full model, its od-ppa variant, the sequence baseline and two
frequency rankers, then scores the cold users) and the dependent tests
share it.
Everything else runs against small randomized worlds or fixed vectors.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import odnext.autograd as ag
from odnext.checkpoint import load_checkpoint, save_checkpoint
from odnext.data import build_interval_tables, build_vocab, preprocess
from odnext.evaluation import STUDY_MODEL, STUDY_SYNTH, study_seed
from odnext.geo import GeoPoint, geohash_encode
from odnext.model import Model, ModelConfig
from odnext.nn import draw_params
from odnext.stlstm import lstm_spec
from reference import grad_check, lstm_step, st_lstm_step

from gradcheck_fixtures import GRADCHECK_SEEDS, micro_loss
from helpers import degenerate_st_weights, random_corpus, user_vector
from test_dataset import brute_force_filter
from test_eval import evaluated, oracle_mismatches, random_cases
from test_geo import CANONICAL

BENCH_SEEDS = (0, 1, 2)
MARGIN = 0.03


def _verdict(capsys, num, label, ok, detail=""):
    """Emit the one-line verdict even under output capture, then assert."""
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {label}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# -- shared synthetic study (criteria 4, 5, 9) ----------------------------


BENCH_METHODS = ("stod-ppa", "od-ppa", "od-lstm", "u-top", "top")


def _run_bench_seed(seed):
    return study_seed(
        replace(STUDY_SYNTH, seed=seed), replace(STUDY_MODEL, seed=seed), BENCH_METHODS
    )


@pytest.fixture(scope="session")
def bench():
    """Three-seed directional study; wall time covers the studied part."""
    t0 = time.perf_counter()
    runs = [_run_bench_seed(seed) for seed in BENCH_SEEDS]
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(runs=runs, elapsed=elapsed, cold=[r.cold for r in runs])


def _bench_mean(bench, name):
    return float(np.mean([r.reports[name].acc1 for r in bench.runs]))


# -- criteria -------------------------------------------------------------


def test_criterion_01_gradient_correctness(capsys):
    t0 = time.perf_counter()
    worst = {name: grad_check(closure, params, h=1e-5)
             for name in GRADCHECK_SEEDS
             for params, closure in [micro_loss(name)]}
    elapsed = time.perf_counter() - t0
    top_name = max(worst, key=worst.get)
    ok = max(worst.values()) <= 1e-4 and elapsed < 30.0
    _verdict(
        capsys, 1, "finite-difference gradients, all variants",
        ok, f"worst {worst[top_name]:.2e} [{top_name}], {elapsed:.1f}s",
    )


def test_criterion_02_normalization(capsys):
    variants = ("stod-ppa", "od-ppa", "decoder-only", "user-add", "user-concat")
    worst_attn = worst_prob = 0.0
    n_queries = 0
    for k, variant in enumerate(variants):
        corpus = random_corpus(100 + k, n_users=8, n_locations=12, min_trips=4, max_trips=10)
        vocab = build_vocab(corpus)
        tables = build_interval_tables(corpus)
        m = Model(ModelConfig(dim=6, hdim=9, seed=k, variant=variant), vocab, tables)
        cache = m.build_cache(corpus)
        rng = np.random.default_rng([2, k])
        for u in range(corpus.n_users):
            origins = rng.integers(0, corpus.n_locations, size=25)
            dprevs = rng.integers(0, corpus.n_locations, size=25)
            probs, [(_, alpha, _)] = m._predict_states(
                cache.states[u], origins, dprevs, user_vector(m, u)
            )
            worst_attn = max(worst_attn, float(np.abs(alpha.sum(axis=0) - 1.0).max()))
            worst_prob = max(worst_prob, float(np.abs(probs.sum(axis=1) - 1.0).max()))
            n_queries += 25
    ok = n_queries == 1000 and worst_attn <= 1e-9 and worst_prob <= 1e-9
    _verdict(
        capsys, 2, "attention and output normalization",
        ok, f"{n_queries} queries, attn dev {worst_attn:.1e}, prob dev {worst_prob:.1e}",
    )


def test_criterion_03_degenerate_equivalence(capsys):
    rng = np.random.default_rng(33)
    dim, hidden, n_loc = 5, 7, 9
    worst = 0.0
    for _ in range(100):
        lstm = draw_params(lstm_spec(dim, hidden), rng)
        stw = degenerate_st_weights(lstm, dim, n_loc)
        x = ag.constant(rng.normal(size=dim))
        geo = ag.constant(rng.normal(size=dim))
        slot = ag.constant(rng.normal(size=dim))
        dspace = ag.constant(rng.uniform(size=n_loc))
        dtime = ag.constant(rng.uniform(size=n_loc))
        h_prev = ag.constant(rng.normal(size=hidden))
        c_prev = ag.constant(rng.normal(size=hidden))
        cs = ag.constant(rng.normal(size=hidden))
        ct = ag.constant(rng.normal(size=hidden))
        h_st, c_st, _, _ = st_lstm_step(stw, x, geo, slot, dspace, dtime, h_prev, c_prev, cs, ct)
        h_pl, c_pl = lstm_step(lstm, x, h_prev, c_prev)
        worst = max(
            worst,
            float(np.abs(h_st.value - h_pl.value).max()),
            float(np.abs(c_st.value - c_pl.value).max()),
        )
    ok = worst <= 1e-12
    _verdict(
        capsys, 3, "zeroed side branches reduce to the plain cell",
        ok, f"100 random steps, max dev {worst:.1e}",
    )


def test_criterion_04_synthetic_recovery(bench, capsys):
    mean = {name: _bench_mean(bench, name) for name in BENCH_METHODS}
    margins = {
        "vs od-lstm": mean["stod-ppa"] - mean["od-lstm"],
        "vs od-ppa": mean["stod-ppa"] - mean["od-ppa"],
        "vs u-top": mean["stod-ppa"] - mean["u-top"],
        "u-top vs top": mean["u-top"] - mean["top"],
    }
    oracle_ok = all(abs(r.oracle_accuracy - 0.9015) < 0.005 for r in bench.runs)
    ok = (
        oracle_ok
        and all(m >= MARGIN for m in margins.values())
        and mean["stod-ppa"] >= 0.60
        and bench.elapsed < 600.0
    )
    detail = (
        f"acc@1 stod-ppa {mean['stod-ppa']:.3f}, od-lstm {mean['od-lstm']:.3f}, "
        f"od-ppa {mean['od-ppa']:.3f}, u-top {mean['u-top']:.3f}, "
        f"top {mean['top']:.3f}; {bench.elapsed:.0f}s"
    )
    _verdict(capsys, 4, "synthetic rule recovery orderings", ok, detail)


def test_criterion_05_cache_equivalence(bench, capsys, tmp_path_factory):
    run = bench.runs[0]
    m, split, queries = run.rankers["stod-ppa"].model, run.split, run.queries
    cache = m.build_cache(split.train)
    worst = 0.0
    cached_probs = {}
    for u, qs in enumerate(queries):
        if not qs:
            continue
        origins = np.array([q.origin for q in qs], dtype=np.int64)
        dprevs = np.array([q.prev_dest for q in qs], dtype=np.int64)
        cached = m.predict_batch(cache, u, origins, dprevs)
        cached_probs[u] = (origins, dprevs, cached)
        trips = split.train.trips_by_user[u]
        so, sd, _, _ = m._encode(m._batch(trips))
        states = np.concatenate([so.value, sd.value], axis=0)
        fresh, _ = m._predict_states(states, origins, dprevs, user_vector(m, u))
        worst = max(worst, float(np.abs(cached - fresh).max()))

    path = tmp_path_factory.mktemp("accept") / "bench.ckpt"
    save_checkpoint(
        str(path), m, cache,
        [rec.loc_id for rec in run.corpus.locations], run.corpus.users,
    )
    bundle = load_checkpoint(str(path))
    bit_exact = all(
        np.array_equal(
            bundle.model.predict_batch(bundle.cache, u, origins, dprevs), probs
        )
        for u, (origins, dprevs, probs) in cached_probs.items()
    )
    ok = len(cached_probs) == run.corpus.n_users and worst <= 1e-12 and bit_exact
    _verdict(
        capsys, 5, "cached encodings match fresh encodings",
        ok, f"{len(cached_probs)} users, max dev {worst:.1e}, reload bit-exact {bit_exact}",
    )


def test_criterion_06_metric_oracles(capsys):
    mismatches = []
    n_cases = 0
    for rankings, targets in random_cases(606, n_cases=100):
        mismatches += oracle_mismatches(rankings, targets)
        n_cases += 1
    single = all(
        evaluated([np.roll(np.arange(8), r - 1)], [0]).map == 1.0 / r for r in range(1, 9)
    )
    ok = not mismatches and single and n_cases == 100
    _verdict(
        capsys, 6, "ranking metrics match brute force",
        ok, f"{n_cases} cases through target_ranks and evaluate, mismatched: "
        f"{', '.join(sorted(set(mismatches))) or 'none'}; single-query reciprocal rank exact",
    )


def test_criterion_07_preprocess_fixpoint(capsys):
    ok = True
    nonempty = 0
    for seed in range(10):
        corpus = random_corpus(700 + seed, n_users=25, n_locations=12, min_trips=2, max_trips=25)
        out = preprocess(corpus, min_trips=10, min_users=10)
        for trips in out.trips_by_user:
            ok &= len(trips) >= 10
        visitors = {}
        for u, trips in enumerate(out.trips_by_user):
            for t in trips:
                visitors.setdefault(t.origin_loc, set()).add(u)
                visitors.setdefault(t.dest_loc, set()).add(u)
        ok &= all(len(v) >= 10 for v in visitors.values())
        again = preprocess(out, min_trips=10, min_users=10)
        key = lambda c: sorted(
            (c.users[u], c.locations[t.origin_loc].loc_id, c.locations[t.dest_loc].loc_id,
             t.pickup_ts, t.dropoff_ts)
            for u, trips in enumerate(c.trips_by_user) for t in trips
        )
        ok &= key(again) == key(out)
        ok &= key(out) == brute_force_filter(corpus, 10, 10)
        if out.n_trips:
            nonempty += 1
    ok = ok and nonempty >= 5
    _verdict(
        capsys, 7, "preprocessing fixpoint matches iterative oracle",
        ok, f"10 corpora, {nonempty} with survivors",
    )


def test_criterion_08_geohash_conformance(capsys):
    vectors = [
        (lat, lon, code[:p])
        for lat, lon, code in CANONICAL
        for p in range(1, len(code) + 1)
    ]
    canon_ok = all(
        geohash_encode(GeoPoint(lat, lon), len(code)) == code for lat, lon, code in vectors
    )
    rng = np.random.default_rng(808)
    prefix_ok = True
    for _ in range(1000):
        p = GeoPoint(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        full = geohash_encode(p, 12)
        prefix_ok &= all(geohash_encode(p, q) == full[:q] for q in range(1, 12))
    ok = len(vectors) >= 20 and canon_ok and prefix_ok
    _verdict(
        capsys, 8, "canonical geohash vectors and prefix property",
        ok, f"{len(vectors)} vectors, 1000 random points",
    )


def test_criterion_09_cold_start(bench, capsys):
    model_acc = float(np.mean([c[0] for c in bench.cold]))
    top_acc = float(np.mean([c[1] for c in bench.cold]))
    n = sum(c[2] for c in bench.cold)
    ok = model_acc - top_acc >= MARGIN
    _verdict(
        capsys, 9, "cold-start cohort beats global frequency",
        ok, f"acc@1 {model_acc:.3f} vs {top_acc:.3f} over {n} queries",
    )


def test_criterion_10_pipeline_determinism(capsys, tmp_path_factory):
    import json

    from odnext.cli import main as cli_main

    synth_cfg = {
        "n_users": 40, "n_locations": 16, "n_clusters": 4,
        "trips_per_user": 12, "p_noise": 0.1, "seed": 7,
    }
    train_cfg = {
        "dim": 8, "hdim": 8, "lr": 0.01, "epochs": 3, "seed": 1,
    }

    def run_pipeline(d):
        (d / "synth.json").write_text(json.dumps(synth_cfg))
        (d / "train.json").write_text(json.dumps(train_cfg))
        assert cli_main([
            "synth", "--config", str(d / "synth.json"),
            "--out-trips", str(d / "trips.csv"),
            "--out-locations", str(d / "locs.csv"),
        ]) == 0
        assert cli_main([
            "train", "--config", str(d / "train.json"),
            "--trips", str(d / "trips.csv"),
            "--locations", str(d / "locs.csv"),
            "--out", str(d / "model.ckpt"),
            "--out-test", str(d / "test.csv"),
            "--report", str(d / "train.report"),
        ]) == 0
        assert cli_main([
            "eval", "--checkpoint", str(d / "model.ckpt"),
            "--test", str(d / "test.csv"),
            "--report", str(d / "eval.report"),
        ]) == 0
        return (
            (d / "model.ckpt").read_bytes(),
            (d / "train.report").read_text(),
            (d / "eval.report").read_text(),
        )

    first = run_pipeline(tmp_path_factory.mktemp("determinism_a"))
    second = run_pipeline(tmp_path_factory.mktemp("determinism_b"))
    ok = first == second
    _verdict(
        capsys, 10, "repeated pipeline is byte-identical",
        ok, "checkpoint, train report and eval report all equal",
    )
