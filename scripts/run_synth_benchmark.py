#!/usr/bin/env python3
"""Directional study on the synthetic corpus with a planted travel rule.

Trains the full model, its origin-destination-only variant, and the
plain sequence baseline over several seeds, scores the frequency
rankers, and reports mean test accuracy plus the cold-start comparison
against the global-frequency ranking.

The study runs the acceptance profile (`evaluation.STUDY_SYNTH` and
`STUDY_MODEL`).  `--synth` and `--train` name JSON files whose keys
override its corpus and model fields; the seed of both comes from
`--seeds`.  A bad value ends in one `error:` line and exit 1.
"""

import argparse
import sys
import time
from dataclasses import replace

from odnext.cli import guarded, load_json, parse_overrides
from odnext.evaluation import (
    STUDY_MODEL,
    STUDY_SYNTH,
    cold_start_eval,
    mean_reports,
    study_seed,
)
from odnext.nn import ContractViolation

STUDY_METHODS = ("stod-ppa", "od-ppa", "od-lstm", "u-top", "top", "taxi")


def profile(base, path):
    """`base` with the overrides of the JSON file at `path`, if any."""
    if path is None:
        return base
    d = load_json(path)
    if "seed" in d:
        raise ContractViolation(f"{path}: the seed comes from --seeds")
    return parse_overrides(base, d)


def run_seed(synth_cfg, model_cfg):
    study = study_seed(synth_cfg, model_cfg, STUDY_METHODS)
    cold = None
    if study.cold_trips:
        cold = cold_start_eval(
            study.rankers["stod-ppa"].model, study.rankers["top"].ranking(), study.cold_trips
        )
    return study.reports, cold, study.oracle_accuracy


def run(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",")]
    synth_cfg = profile(STUDY_SYNTH, args.synth)
    model_cfg = profile(STUDY_MODEL, args.train)
    t0 = time.perf_counter()
    per_method: dict[str, list] = {}
    cold_rows = []
    oracle = None
    for seed in seeds:
        reports, cold, oracle = run_seed(
            replace(synth_cfg, seed=seed), replace(model_cfg, seed=seed)
        )
        for name, rep in reports.items():
            per_method.setdefault(name, []).append(rep)
        if cold:
            cold_rows.append(cold)
        line = "  ".join(f"{n}={r.acc1:.4f}" for n, r in reports.items())
        print(f"seed {seed}: {line}", flush=True)

    print(f"\noracle ceiling: {oracle:.4f}")
    print(f"{'method':10s} {'acc@1':>8s} {'acc@5':>8s} {'acc@10':>8s} {'map':>8s}")
    for name, reps in per_method.items():
        mean = mean_reports(reps)
        print(
            f"{name:10s} {mean['acc1']:8.4f} {mean['acc5']:8.4f} "
            f"{mean['acc10']:8.4f} {mean['map']:8.4f}"
        )
    if cold_rows:
        m = sum(r[0] for r in cold_rows) / len(cold_rows)
        t = sum(r[1] for r in cold_rows) / len(cold_rows)
        n = sum(r[2] for r in cold_rows)
        print(f"\ncold start over {n} queries: model acc@1 {m:.4f} vs global-top {t:.4f}")
    print(f"\ntotal {time.perf_counter() - t0:.1f}s")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2", help="comma list of corpus/model seeds")
    ap.add_argument("--synth", help="JSON file of SynthConfig fields to override")
    ap.add_argument("--train", help="JSON file of ModelConfig fields to override")
    return guarded(run, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
