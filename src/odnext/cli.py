"""Command-line interface.

Subcommands cover the whole pipeline: corpus filtering, training,
evaluation, single-query prediction, ablation comparison, synthetic
corpus generation, hyperparameter sweeps, and the multi-seed study on
the synthetic corpus.  Reports are key=value lines on stdout; every
report includes a sha256 over the effective configuration so runs can
be matched to their settings.

Exit codes: 0 success, 1 contract violation (bad configuration or
arguments), 2 unreadable or malformed input files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from statistics import fmean

from .baselines import FREQUENCY_KINDS
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .data import (
    CorpusFormatError,
    TrainingExample,
    Trip,
    build_test_queries,
    chain_queries,
    load_corpus,
    load_trip_rows,
    preprocess,
    save_corpus,
    save_trips,
)
from .evaluation import (
    METHODS,
    STUDY_MODEL,
    STUDY_SYNTH,
    ModelRanker,
    evaluate,
    fit_ranker,
    mean_reports,
    prepare_split,
    rank_descending,
    sensitivity_sweep,
    study_seed,
)
from .model import ModelConfig
from .nn import ContractViolation, check_settings, setting, settings
from .synth import SynthConfig, generate

# every method `odnext study` trains and scores; cold start needs stod-ppa and top
STUDY_METHODS = ("stod-ppa", "od-ppa", "od-lstm", "u-top", "top", "taxi")


@dataclass(frozen=True)
class TrainRunConfig:
    """A model config and the share of each user's trips it trains on.
    Sparse users and locations are dropped by `odnext preprocess`, not here."""

    model: ModelConfig
    train_ratio: float = setting(0.7, gt=0, le=1)

    def __post_init__(self):
        check_settings(self)

    def as_dict(self) -> dict:
        return {**self.model.as_dict(), "train_ratio": float(self.train_ratio)}


def config_sha256(d: dict) -> str:
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            d = json.load(f)
        except (json.JSONDecodeError, RecursionError) as e:  # the latter: nesting too deep
            raise CorpusFormatError(f"{path}: {e}") from None
    if not isinstance(d, dict):
        raise ContractViolation(f"{path}: configuration must be a JSON object")
    return d


def _checked_fields(d: dict, *classes) -> list[dict]:
    """Split `d` over the config dataclasses `classes`: per class, the
    entries that name one of its settings.  A key that names no setting
    is rejected; the values are checked when the configs are built."""
    declared = [settings(cls) for cls in classes]
    unknown = set(d).difference(*declared)
    if unknown:
        raise ContractViolation(f"unknown configuration keys: {sorted(unknown)}")
    return [{n: d[n] for n in names if n in d} for names in declared]


def parse_train_config(d: dict) -> TrainRunConfig:
    model, pipeline = _checked_fields(d, ModelConfig, TrainRunConfig)
    return TrainRunConfig(ModelConfig(**model), **pipeline)


def parse_overrides(base, d: dict):
    """`base`, a config dataclass, with the entries of `d` put in its fields."""
    (fields,) = _checked_fields(d, type(base))
    return replace(base, **fields)


def parse_seeds(text: str) -> list[int]:
    """The comma list of distinct integers a `--seeds` flag holds."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise ContractViolation(f"--seeds takes a comma list of integers, not {text!r}") from None
    if len(set(seeds)) != len(seeds):
        repeated = next(s for i, s in enumerate(seeds) if s in seeds[:i])
        raise ContractViolation(f"--seeds repeats seed {repeated} in {text!r}")
    return seeds


def _emit(lines: list[str], report_path: str | None) -> None:
    """Write the report file, then print: a closed stdout cannot cost the file."""
    text = "\n".join(lines)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)


def _metric_lines(prefix: str, values: dict) -> list[str]:
    """One `<prefix><key>=<value>` line per metric, a float at six decimals."""
    return [
        f"{prefix}{key}=" + (f"{value:.6f}" if isinstance(value, float) else f"{value}")
        for key, value in values.items()
    ]


# -- subcommands ----------------------------------------------------------


def cmd_preprocess(args) -> int:
    corpus = load_corpus(args.trips, args.locations)
    result = preprocess(corpus, args.min_trips, args.min_users)
    save_corpus(result, args.out_trips, args.out_locations)
    _emit(
        [
            f"users_before={corpus.n_users}",
            f"users_after={result.n_users}",
            f"locations_before={corpus.n_locations}",
            f"locations_after={result.n_locations}",
            f"trips_before={corpus.n_trips}",
            f"trips_after={result.n_trips}",
        ],
        args.report,
    )
    return 0


def _training_run(args) -> tuple:
    """(config, corpus, split, vocab, tables) of a `train`, `ablate` or
    `sweep` run; an empty corpus is refused before any training."""
    cfg = parse_train_config(load_json(args.config))
    corpus = load_corpus(args.trips, args.locations)
    if corpus.is_empty:
        raise ContractViolation("training corpus has no users")
    return cfg, corpus, *prepare_split(corpus, cfg.model, cfg.train_ratio)


def cmd_train(args) -> int:
    cfg, corpus, split, vocab, tables = _training_run(args)
    ranker = fit_ranker(cfg.model.variant, cfg.model, split, vocab, tables)
    model = ranker.model
    save_checkpoint(
        args.out, model, ranker.cache, [rec.loc_id for rec in corpus.locations], corpus.users
    )
    if args.out_test:
        save_trips(split.test, args.out_test)
    _emit(
        [
            f"config_sha256={config_sha256(cfg.as_dict())}",
            f"variant={cfg.model.variant}",
            f"n_users={corpus.n_users}",
            f"n_locations={corpus.n_locations}",
            f"n_train_trips={split.train.n_trips}",
            f"n_test_trips={split.test.n_trips}",
            f"flagged_users={len(split.flagged_users)}",
            f"epochs={cfg.model.epochs}",
            f"final_loss={model.loss_curve[-1]:.6f}" if model.loss_curve else "final_loss=nan",
        ],
        args.report,
    )
    return 0


def _id_indices(bundle) -> list[dict[str, int]]:
    """The bundle's user ids and location ids, each mapped to its index."""
    return [{x: i for i, x in enumerate(ids)} for ids in (bundle.user_ids, bundle.location_ids)]


def _test_queries_from_rows(bundle, rows) -> tuple[list[list[TrainingExample]], int]:
    """Group raw test rows per known user and chain each user's queries
    from the end of their training history, as `build_test_queries` does.
    Rows of unknown users or locations, and of users without encoder
    states (under two training trips), are counted as skipped."""
    user_index, loc_index = _id_indices(bundle)
    per_user: dict[int, list[Trip]] = {}
    skipped = 0
    for _, user_id, origin_id, dest_id, pickup, dropoff in rows:
        if user_id not in user_index or origin_id not in loc_index or dest_id not in loc_index:
            skipped += 1
            continue
        per_user.setdefault(user_index[user_id], []).append(
            Trip(loc_index[origin_id], loc_index[dest_id], pickup, dropoff)
        )
    queries: list[list[TrainingExample]] = [[] for _ in bundle.user_ids]
    cache = bundle.cache
    for u, trips in per_user.items():
        if cache.n_train[u] < 2:
            skipped += len(trips)
        else:
            queries[u] = chain_queries(u, int(cache.last_dest[u]), trips)
    return queries, skipped


def cmd_eval(args) -> int:
    bundle = load_checkpoint(args.checkpoint)
    rows = load_trip_rows(args.test)
    queries, skipped = _test_queries_from_rows(bundle, rows)
    report = evaluate(ModelRanker(bundle.model, bundle.cache), queries)
    report.n_skipped += skipped
    lines = [
        f"config_sha256={config_sha256(bundle.model.config.as_dict())}",
        f"variant={bundle.model.config.variant}",
    ] + _metric_lines("", report.as_dict())
    _emit(lines, args.report)
    return 0


def cmd_predict(args) -> int:
    if args.top < 1:
        raise ContractViolation(f"--top must be at least 1, got {args.top}")
    bundle = load_checkpoint(args.checkpoint)
    model, cache = bundle.model, bundle.cache
    user_index, loc_index = _id_indices(bundle)
    if args.user not in user_index:
        raise ContractViolation(f"unknown user id {args.user!r}")
    for loc in (args.origin, args.prev_dest):
        if loc not in loc_index:
            raise ContractViolation(f"unknown location id {loc!r}")
    user = user_index[args.user]
    if (n := cache.n_train[user]) < 2:  # no encoder states
        raise ContractViolation(f"user {args.user!r} has {n} training trip(s); predict needs 2")
    origin = loc_index[args.origin]
    prev_dest = loc_index[args.prev_dest]
    if args.explain:
        probs, w_origin, w_dest = model.attention(cache, user, origin, prev_dest)
    else:
        probs = model.predict_batch(cache, user, [origin], [prev_dest])[0]
    ranking = rank_descending(probs)
    lines = []
    for pos in range(min(args.top, len(ranking))):
        loc = int(ranking[pos])
        lines.append(f"{pos + 1} {bundle.location_ids[loc]} {probs[loc]:.6f}")
    if args.explain:
        for k, (loc, w) in enumerate(zip(cache.oseq[user], w_origin)):
            lines.append(f"attn o[{k}]={bundle.location_ids[int(loc)]} {100.0 * w:.2f}%")
        for k, (loc, w) in enumerate(zip(cache.dseq[user], w_dest)):
            lines.append(f"attn d[{k}]={bundle.location_ids[int(loc)]} {100.0 * w:.2f}%")
    _emit(lines, args.report)
    return 0


def cmd_synth(args) -> int:
    cfg = parse_overrides(SynthConfig(), load_json(args.config))
    corpus, manifest = generate(cfg)
    save_corpus(corpus, args.out_trips, args.out_locations)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    _emit(
        [
            f"config_sha256={config_sha256(cfg.as_dict())}",
            f"n_users={corpus.n_users}",
            f"n_locations={corpus.n_locations}",
            f"n_trips={corpus.n_trips}",
            f"oracle_accuracy={manifest['oracle_accuracy']:.6f}",
        ],
        args.report,
    )
    return 0


def cmd_ablate(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ContractViolation("no variants given")
    seeds = parse_seeds(args.seeds)
    for v in variants:
        if v not in METHODS:
            raise ContractViolation(f"unknown ablation target {v!r}")
    cfg, _, split, vocab, tables = _training_run(args)
    queries = build_test_queries(split)
    lines = [f"config_sha256={config_sha256(cfg.as_dict())}"]
    for v in variants:
        runs = seeds[:1] if v in FREQUENCY_KINDS else seeds  # counting needs no seed
        lines += _metric_lines(f"{v}.", mean_reports([
            evaluate(fit_ranker(v, replace(cfg.model, seed=s), split, vocab, tables), queries)
            for s in runs
        ]))
    _emit(lines, args.report)
    return 0


def _study_profile(base, path: str | None):
    """`base` with the overrides of the JSON file at `path`, if any."""
    if path is None:
        return base
    d = load_json(path)
    if "seed" in d:
        raise ContractViolation(f"{path}: the seed comes from --seeds")
    return parse_overrides(base, d)


def cmd_study(args) -> int:
    seeds = parse_seeds(args.seeds)
    synth_cfg = _study_profile(STUDY_SYNTH, args.synth)
    model_cfg = _study_profile(STUDY_MODEL, args.train)
    studies = [
        study_seed(replace(synth_cfg, seed=s), replace(model_cfg, seed=s), STUDY_METHODS)
        for s in seeds
    ]
    profile = {"seeds": seeds, "synth": synth_cfg.as_dict(), "model": model_cfg.as_dict()}
    lines = [f"config_sha256={config_sha256(profile)}"]
    for s, study in zip(seeds, studies):
        lines += [f"seed{s}.{m}.acc1={r.acc1:.6f}" for m, r in study.reports.items()]
    for m in STUDY_METHODS:
        lines += _metric_lines(f"{m}.", mean_reports([study.reports[m] for study in studies]))
    lines.append(f"oracle_accuracy={fmean(study.oracle_accuracy for study in studies):.6f}")
    cold = [study.cold for study in studies if study.cold]
    if cold:
        lines += [
            f"cold.n_queries={sum(n for _, _, n in cold)}",
            f"cold.model_acc1={fmean(acc for acc, _, _ in cold):.6f}",
            f"cold.top_acc1={fmean(acc for _, acc, _ in cold):.6f}",
        ]
    _emit(lines, args.report)
    return 0


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ContractViolation("no sweep values given")
    try:
        parsed = [float(v) for v in values]
    except ValueError:
        raise ContractViolation(f"sweep values must be numeric: {values}") from None
    cfg, _, split, vocab, tables = _training_run(args)
    results = sensitivity_sweep(cfg.model, args.param, parsed, split, vocab, tables)
    lines = [f"config_sha256={config_sha256(cfg.as_dict())}", f"param={args.param}"]
    for value, report in results:
        lines += _metric_lines(f"{args.param}[{value:g}].", mean_reports([report]))
    _emit(lines, args.report)
    return 0


# -- argument wiring ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odnext",
        description="Origin-aware next-destination recommendation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--report", help="also write the report to this file")
        p.set_defaults(func=func)
        return p

    def training(name: str, func, help: str) -> argparse.ArgumentParser:
        p = command(name, func, help)
        p.add_argument("--config", required=True, help="JSON hyperparameter file")
        p.add_argument("--trips", required=True)
        p.add_argument("--locations", required=True)
        return p

    p = command("preprocess", cmd_preprocess, "drop sparse users and locations")
    p.add_argument("--trips", required=True)
    p.add_argument("--locations", required=True)
    p.add_argument("--out-trips", required=True)
    p.add_argument("--out-locations", required=True)
    p.add_argument("--min-trips", type=int, default=10)
    p.add_argument("--min-users", type=int, default=10)

    p = training("train", cmd_train, "train a model and save a checkpoint")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--out-test", help="write the held-out test trips here")

    p = command("eval", cmd_eval, "score a checkpoint on held-out trips")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="test trip CSV")

    p = command("predict", cmd_predict, "rank destinations for one query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--origin", required=True)
    p.add_argument("--prev-dest", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--explain", action="store_true", help="print attention weights")

    p = command("synth", cmd_synth, "generate a synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out-trips", required=True)
    p.add_argument("--out-locations", required=True)
    p.add_argument("--manifest", help="write the planted-rule manifest here")

    p = training("ablate", cmd_ablate, "compare variants and baselines")
    p.add_argument(
        "--variants",
        default="stod-ppa,od-ppa,od-lstm,u-top,top",
        help="comma list of model variants / baselines",
    )
    p.add_argument("--seeds", default="0", help="comma list of training seeds")

    p = training("sweep", cmd_sweep, "vary one hyperparameter and re-train")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma list of values")

    p = command("study", cmd_study, "multi-seed study on the synthetic corpus")
    p.add_argument("--seeds", default="0,1,2", help="comma list of corpus and model seeds")
    p.add_argument("--synth", help="JSON file of SynthConfig fields to override")
    p.add_argument("--train", help="JSON file of ModelConfig fields to override")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(args.func, args)


def guarded(func, *args) -> int:
    """`func(*args)`, with an unreadable or malformed input ending in exit 2
    and a contract violation in exit 1, each as one `error:` line."""
    try:
        return func(*args)
    except (CorpusFormatError, CheckpointFormatError, UnicodeDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # ContractViolation among them
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # a configuration too large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
