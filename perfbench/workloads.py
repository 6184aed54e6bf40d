"""The benchmark's workloads: corpus profiles, set-up and one timed pass.

Each workload generates its corpus with `synth.generate` from the
workload seed and hands the program nothing else.  A pass records its
timings into a Recorder and its outputs into Checks; the checks run
after the pass's wall clock has stopped.

Layer entry points are called through their modules (`data.preprocess`,
`checkpoint.load_checkpoint`, ...) so that a traced pass sees them.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from odnext import checkpoint, data, evaluation, synth
from odnext.baselines import FrequencyRanker, ODLSTM, ODLSTMConfig
from odnext.data import Corpus, Trip
from odnext.model import Model, ModelConfig
from odnext.synth import SynthConfig
from speed import Piece, SpeedProbe

TRAIN_RATIO = 0.7
REFERENCE_QUERIES = 32  # fixed sample for the checkpoint bit-identity check
ROUNDS = 3  # serving rounds per pass
CLI_REPS = 4  # loads with one ranked query, per round

# Criterion-4 study profile (tests/test_acceptance.py), one epoch per model.
ACCEPT_SYNTH = SynthConfig(
    n_users=200,
    n_locations=60,
    n_clusters=6,
    trips_per_user=30,
    p_noise=0.1,
    n_cold_users=50,
    n_user_types=250,
    day_half_adherence=0.95,
    rule_member_pool=2,
)
ACCEPT_MODEL = ModelConfig(dim=32, hdim=32, lr=1e-3, epochs=1, attention_context="causal")

# Wide profile: |L| = 600 so the |L|-sized costs show.  scale-serve adds
# a larger cold cohort; cold users do not change the main users' trips.
SCALE_SYNTH = SynthConfig(
    n_users=64,
    n_locations=600,
    n_clusters=12,
    trips_per_user=60,
    p_noise=0.1,
    n_cold_users=40,
    n_user_types=64,
    day_half_adherence=0.95,
    rule_member_pool=2,
)
SCALE_SERVE_COLD_USERS = 120
SCALE_MODEL = ModelConfig(dim=64, hdim=64, lr=1e-3, epochs=1, attention_context="causal")
PREPROCESS_MIN_TRIPS = 10
PREPROCESS_MIN_USERS = 2


class Recorder:
    """Timings of one run, kept as raw pieces and normalised on read."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.timed: dict[str, list] = defaultdict(list)
        self.last: dict[str, float] = {}

    def start(self):
        return self.probe.start()

    def stop(self, started) -> Piece:
        return self.probe.stop(started)

    def time(self, name: str, pieces, scale: float = 1.0) -> None:
        self.timed[name].append(("time", tuple(pieces), scale))

    def rate(self, name: str, count: float, pieces) -> None:
        self.timed[name].append(("rate", tuple(pieces), count))

    def set(self, name: str, value: float) -> None:
        self.last[name] = value

    def values(self, name: str, normalise: bool = True) -> list[float]:
        out = []
        for kind, pieces, x in self.timed.get(name, ()):
            secs = self.probe.seconds(pieces) if normalise else sum(p.net for p in pieces)
            out.append(secs * x if kind == "time" else x / secs)
        return out


class RecordingRanker:
    """Passes rank_user through and keeps the rankings for checking later."""

    def __init__(self, inner):
        self.inner = inner
        self.rankings: list[np.ndarray] = []

    def rank_user(self, user, queries):
        out = self.inner.rank_user(user, queries)
        self.rankings.extend(out)
        return out


# -- operations shared by the workloads ------------------------------------


def usable_users(train: Corpus) -> int:
    return sum(len(t) >= 2 for t in train.trips_by_user)


def fit(trainable, train: Corpus, epochs: int, rec: Recorder, timing: dict) -> list[float]:
    t = rec.start()
    curve = trainable.fit(train)
    timing["fit"].append(rec.stop(t))
    timing["steps"] += usable_users(train) * epochs
    return curve


def timed_evaluate(ranker, queries, rec: Recorder, sample: bool = True):
    """Batched evaluation; with `sample`, one eval_queries_per_s sample."""
    recording = RecordingRanker(ranker)
    t = rec.start()
    report = evaluation.evaluate(recording, queries)
    if sample:
        rec.rate("eval_queries_per_s", report.n_queries, [rec.stop(t)])
    return report, recording.rankings


def cli_predict(path: str, query, rec: Recorder):
    """What one `odnext predict` call pays: load, then one ranked query."""
    user, origin, dprev = query
    for _ in range(CLI_REPS):
        t = rec.start()
        bundle = checkpoint.load_checkpoint(path)
        probs = bundle.model.predict_batch(bundle.cache, user, [origin], [dprev])[0]
        evaluation.rank_descending(probs)
        rec.time("cli_predict_ms", [rec.stop(t)], 1000.0)
    return bundle


def closed_loop(model, cache, requests, rec: Recorder) -> list:
    """One client: each request is `odnext predict --explain` without the
    load, issued when the previous reply has arrived."""
    replies = []
    for user, origin, dprev in requests:
        t = rec.start()
        probs = model.predict_batch(cache, user, [origin], [dprev])[0]
        ranking = evaluation.rank_descending(probs)
        _, w_o, w_d = model.attention(cache, user, origin, dprev)
        rec.time("predict_ms", [rec.stop(t)], 1000.0)
        replies.append((probs, ranking, w_o, w_d))
    return replies


@dataclass
class Served:
    bundle: object = None
    evals: list = field(default_factory=list)
    replies: list = field(default_factory=list)
    colds: list = field(default_factory=list)  # (cold_start_eval result, expected count)


def serve_round(wl, r: int, path: str, queries, cold, top, seed: int, rec, out: Served) -> None:
    """Serving round r of ROUNDS in a pass: CLI_REPS loads with one query
    each, one batched evaluation of every test query, `wl.loop_requests`
    closed-loop requests, and `cold_start_eval` over every ROUNDS-th cold
    user.  A pass runs the rounds at different moments, so that each
    serving metric is sampled across the pass rather than in one burst."""
    out.bundle = cli_predict(path, query_sample(queries, 1, seed, 1)[0], rec)
    model, cache = out.bundle.model, out.bundle.cache
    out.evals.append(timed_evaluate(evaluation.ModelRanker(model, cache), queries, rec))
    requests = query_sample(queries, wl.loop_requests, seed, 2 + r)
    out.replies += closed_loop(model, cache, requests, rec)
    part = cold[r::ROUNDS]
    t = rec.start()
    result = evaluation.cold_start_eval(model, top, part)
    rec.rate("cold_queries_per_s", result[2], [rec.stop(t)])
    out.colds.append((result, cold_queries(part)))


def serve(wl, path: str, queries, cold, top, seed: int, rec) -> Served:
    out = Served()
    for r in range(ROUNDS):
        serve_round(wl, r, path, queries, cold, top, seed, rec, out)
    return out


def query_sample(queries, size: int, seed: int, salt: int) -> list[tuple[int, int, int]]:
    flat = [(q.user, q.origin, q.prev_dest) for user_q in queries for q in user_q]
    rng = np.random.default_rng([seed, salt])
    return [flat[i] for i in rng.integers(0, len(flat), size=size)]


def predictions(model, cache, sample) -> np.ndarray:
    return np.stack([model.predict_batch(cache, u, [o], [d])[0] for u, o, d in sample])


def save(model, cache, corpus: Corpus, path: str) -> None:
    checkpoint.save_checkpoint(
        path, model, cache, [rec.loc_id for rec in corpus.locations], corpus.users
    )


def top_ranking(train: Corpus) -> np.ndarray:
    return FrequencyRanker("top").fit(train).ranking()


def cold_queries(cold) -> int:
    return sum(max(0, len(t) - 1) for t in cold)


# -- output checks -------------------------------------------------------


def is_distribution(p: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9)


def permutation_rows(rankings, n_locations: int) -> np.ndarray:
    """Per ranking: is it a permutation of range(n_locations)?"""
    if not rankings:
        return np.zeros(0, dtype=bool)
    ok = np.array([r.shape == (n_locations,) for r in rankings])
    if ok.all():
        expect = np.arange(n_locations)
        ok = np.all(np.sort(np.stack(rankings), axis=1) == expect, axis=1)
    return ok


def check_fit(checks, curve, epochs: int, what: str) -> None:
    checks.check(len(curve) == epochs and all(math.isfinite(x) for x in curve), f"{what} loss curve")


def check_eval(checks, report, rankings, n_queries: int, n_locations: int, what: str) -> None:
    checks.check(
        report.n_queries == n_queries
        and report.n_skipped == 0
        and 0.0 <= report.acc1 <= 1.0
        and 0.0 < report.map <= 1.0,
        f"{what} report",
    )
    checks.check_all(permutation_rows(rankings, n_locations), f"{what} ranking")


def check_replies(checks, replies, n_locations: int) -> None:
    for i, (probs, ranking, w_o, w_d) in enumerate(replies):
        weights = np.concatenate([w_o, w_d])
        checks.check(
            is_distribution(probs)
            and permutation_rows([ranking], n_locations).all()
            and bool(np.all(np.isfinite(weights)))
            and abs(weights.sum() - 1.0) <= 1e-9,
            f"predict reply[{i}]",
        )


def check_served(checks, served: Served, queries, n_locations: int, reference, sample) -> None:
    n_queries = sum(len(q) for q in queries)
    for report, rankings in served.evals:
        check_eval(checks, report, rankings, n_queries, n_locations, "stod-ppa")
    check_replies(checks, served.replies, n_locations)
    for (model_acc, top_acc, n), expected in served.colds:
        checks.check(
            n == expected and 0.0 <= model_acc <= 1.0 and 0.0 <= top_acc <= 1.0, "cold start"
        )
    bundle = served.bundle
    check_identical(checks, reference, predictions(bundle.model, bundle.cache, sample))


def check_identical(checks, reference: np.ndarray, loaded: np.ndarray) -> None:
    checks.check_all(
        [np.array_equal(a, b) for a, b in zip(reference, loaded)], "loaded checkpoint prediction"
    )


# -- workloads -----------------------------------------------------------


@dataclass
class Workload:
    name: str
    setup: object  # (seed, workdir, rec, checks) -> state
    run_pass: object  # (state, rec, checks) -> the pass's wall-clock Piece
    loop_requests: int  # closed-loop requests, per round


def new_timing() -> dict:
    return {"fit": [], "steps": 0}


def record_pass(rec: Recorder, timing: dict, curve, served: Served) -> None:
    if timing["fit"]:
        rec.rate("train_steps_per_s", timing["steps"], timing["fit"])
        rec.set("final_loss", curve[-1])
    report = served.evals[0][0]
    rec.set("acc1", report.acc1)
    rec.set("map", report.map)


def split_generated(cfg: SynthConfig) -> tuple[Corpus, Corpus, list[list[Trip]]]:
    """(full corpus, main users, cold users' trips) from one generate call."""
    full, _ = synth.generate(cfg)
    n = cfg.n_users
    main = Corpus(full.locations, full.users[:n], full.trips_by_user[:n])
    return full, main, full.trips_by_user[n:]


@dataclass
class AcceptState:
    seed: int
    corpus: Corpus
    cold: list
    workdir: str


def accept_setup(seed, workdir, rec, checks):
    _, corpus, cold = split_generated(replace(ACCEPT_SYNTH, seed=seed))
    return AcceptState(seed, corpus, cold, workdir)


def accept_pass(st: AcceptState, rec: Recorder, checks) -> Piece:
    """The criterion-4 study for one seed, one epoch per model; stod-ppa
    is evaluated and cold-started through the serving rounds."""
    timing = new_timing()
    cfg = replace(ACCEPT_MODEL, seed=st.seed)
    t0 = rec.start()
    split = data.chronological_split(st.corpus, TRAIN_RATIO)
    vocab = data.build_vocab(st.corpus)
    tables = data.build_interval_tables(split.train)
    queries = data.build_test_queries(split)
    n_loc = st.corpus.n_locations

    # The ROUNDS = 3 serving rounds run on the stod-ppa checkpoint, one
    # after each fit.
    wl = WORKLOADS["accept-train"]
    stod = Model(replace(cfg, variant="stod-ppa"), vocab, tables)
    stod_curve = fit(stod, split.train, cfg.epochs, rec, timing)
    stod_cache = stod.build_cache(split.train)
    path = os.path.join(st.workdir, "accept.ckpt")
    save(stod, stod_cache, st.corpus, path)
    top = FrequencyRanker("top").fit(split.train)
    served = Served()
    serve_round(wl, 0, path, queries, st.cold, top.ranking(), st.seed, rec, served)

    odppa = Model(replace(cfg, variant="od-ppa"), vocab, tables)
    odppa_curve = fit(odppa, split.train, cfg.epochs, rec, timing)
    odppa_cache = odppa.build_cache(split.train)
    serve_round(wl, 1, path, queries, st.cold, top.ranking(), st.seed, rec, served)

    od = ODLSTM(
        ODLSTMConfig(dim=cfg.dim, hdim=cfg.hdim, lr=cfg.lr, epochs=cfg.epochs, seed=st.seed),
        n_loc,
    )
    od_curve = fit(od, split.train, cfg.epochs, rec, timing)
    rankers = {
        "od-ppa": evaluation.ModelRanker(odppa, odppa_cache),
        "od-lstm": od,
        "u-top": FrequencyRanker("u-top").fit(split.train),
        "top": top,
    }
    reports = {name: timed_evaluate(r, queries, rec, sample=False) for name, r in rankers.items()}
    serve_round(wl, 2, path, queries, st.cold, top.ranking(), st.seed, rec, served)
    wall = rec.stop(t0)

    record_pass(rec, timing, stod_curve, served)
    check_fit(checks, stod_curve, cfg.epochs, "stod-ppa")
    check_fit(checks, odppa_curve, cfg.epochs, "od-ppa")
    check_fit(checks, od_curve, cfg.epochs, "od-lstm")
    n_queries = sum(len(q) for q in queries)
    for name, (report, rankings) in reports.items():
        check_eval(checks, report, rankings, n_queries, n_loc, name)
    sample = query_sample(queries, REFERENCE_QUERIES, st.seed, 1)
    check_served(checks, served, queries, n_loc, predictions(stod, stod_cache, sample), sample)
    return wall


@dataclass
class ScaleTrained:
    corpus: Corpus  # after preprocess
    split: data.SplitResult
    model: Model
    cache: object
    curve: list
    path: str


def remap_cold(full: Corpus, cold, corpus: Corpus) -> list[list[Trip]]:
    """Cold users' trips in `corpus`'s location index space; trips that
    touch a location preprocessing dropped are left out."""
    index = {rec.loc_id: i for i, rec in enumerate(corpus.locations)}
    return [evaluation.remap_user_trips(trips, full, index) for trips in cold]


def scale_train_path(generated: Corpus, seed: int, workdir: str, rec, timing) -> ScaleTrained:
    """`odnext preprocess` + `odnext train`: CSV round trip, filter, split,
    vocabulary, tables, fit, cache, checkpoint."""
    trips_csv = os.path.join(workdir, "trips.csv")
    locs_csv = os.path.join(workdir, "locations.csv")
    data.save_corpus(generated, trips_csv, locs_csv)
    loaded = data.load_corpus(trips_csv, locs_csv)
    corpus = data.preprocess(loaded, PREPROCESS_MIN_TRIPS, PREPROCESS_MIN_USERS)
    split = data.chronological_split(corpus, TRAIN_RATIO)
    cfg = replace(SCALE_MODEL, seed=seed)
    vocab = data.build_vocab(corpus, cfg.geohash_precision, cfg.utc_offset_hours)
    tables = data.build_interval_tables(split.train)
    model = Model(cfg, vocab, tables)
    curve = fit(model, split.train, cfg.epochs, rec, timing)
    cache = model.build_cache(split.train)
    path = os.path.join(workdir, "model.ckpt")
    save(model, cache, corpus, path)
    return ScaleTrained(corpus, split, model, cache, curve, path)


@dataclass
class ScaleTrainState:
    seed: int
    full: Corpus
    generated: Corpus
    cold: list
    workdir: str


def scale_train_setup(seed, workdir, rec, checks):
    full, main, cold = split_generated(replace(SCALE_SYNTH, seed=seed))
    return ScaleTrainState(seed, full, main, cold, workdir)


def scale_train_pass(st: ScaleTrainState, rec: Recorder, checks) -> Piece:
    """The train path, then the serving rounds on the checkpoint it wrote."""
    timing = new_timing()
    t0 = rec.start()
    tr = scale_train_path(st.generated, st.seed, st.workdir, rec, timing)
    queries = data.build_test_queries(tr.split)
    cold = remap_cold(st.full, st.cold, tr.corpus)
    top = top_ranking(tr.split.train)
    served = serve(WORKLOADS["scale-train"], tr.path, queries, cold, top, st.seed, rec)
    wall = rec.stop(t0)

    record_pass(rec, timing, tr.curve, served)
    check_fit(checks, tr.curve, SCALE_MODEL.epochs, "stod-ppa")
    sample = query_sample(queries, REFERENCE_QUERIES, st.seed, 1)
    reference = predictions(tr.model, tr.cache, sample)
    check_served(checks, served, queries, tr.corpus.n_locations, reference, sample)
    return wall


@dataclass
class ScaleServeState:
    seed: int
    path: str  # the checkpoint; the in-memory model is dropped, so the
    # passes' peak RSS is the serving path's own
    n_locations: int
    queries: list
    cold: list
    top: np.ndarray
    sample: list
    reference: np.ndarray


def scale_serve_setup(seed, workdir, rec, checks):
    """Train briefly and save the checkpoint the passes serve from."""
    full, main, cold = split_generated(
        replace(SCALE_SYNTH, seed=seed, n_cold_users=SCALE_SERVE_COLD_USERS)
    )
    timing = new_timing()
    tr = scale_train_path(main, seed, workdir, rec, timing)
    rec.rate("train_steps_per_s", timing["steps"], timing["fit"])
    rec.set("final_loss", tr.curve[-1])
    check_fit(checks, tr.curve, SCALE_MODEL.epochs, "stod-ppa")
    queries = data.build_test_queries(tr.split)
    sample = query_sample(queries, REFERENCE_QUERIES, seed, 1)
    return ScaleServeState(
        seed,
        tr.path,
        tr.corpus.n_locations,
        queries,
        remap_cold(full, cold, tr.corpus),
        top_ranking(tr.split.train),
        sample,
        predictions(tr.model, tr.cache, sample),
    )


def scale_serve_pass(st: ScaleServeState, rec: Recorder, checks) -> Piece:
    """`odnext predict`, `eval` and `predict --explain` from the checkpoint,
    and the cold cohort."""
    t0 = rec.start()
    served = serve(WORKLOADS["scale-serve"], st.path, st.queries, st.cold, st.top, st.seed, rec)
    wall = rec.stop(t0)

    record_pass(rec, new_timing(), None, served)
    check_served(checks, served, st.queries, st.n_locations, st.reference, st.sample)
    return wall


WORKLOADS = {
    w.name: w
    for w in (
        Workload("accept-train", accept_setup, accept_pass, 2000),
        Workload("scale-train", scale_train_setup, scale_train_pass, 1000),
        Workload("scale-serve", scale_serve_setup, scale_serve_pass, 700),
    )
}
