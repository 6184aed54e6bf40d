#!/usr/bin/env python3
"""Directional study on the synthetic corpus with a planted travel rule.

Trains the full model, its origin-destination-only variant, and the
plain sequence baseline over several seeds, scores the frequency
rankers, and reports mean test accuracy plus the cold-start comparison
against the global-frequency ranking.
"""

import argparse
import time

from odnext.evaluation import cold_start_eval, mean_reports, study_seed
from odnext.model import ModelConfig
from odnext.synth import SynthConfig

STUDY_METHODS = ("stod-ppa", "od-ppa", "od-lstm", "u-top", "top", "taxi")


def run_seed(seed, args):
    synth_cfg = SynthConfig(
        n_users=args.users,
        n_locations=args.locations,
        n_clusters=args.clusters,
        trips_per_user=args.trips,
        p_noise=args.noise,
        seed=seed,
        n_cold_users=args.cold_users,
        n_user_types=args.user_types,
        day_half_adherence=args.adherence,
        rule_member_pool=args.member_pool,
    )
    model_cfg = ModelConfig(
        dim=args.dim,
        hdim=args.hdim,
        lr=args.lr,
        epochs=args.epochs,
        seed=seed,
        attention_context=args.context,
    )
    study = study_seed(synth_cfg, model_cfg, STUDY_METHODS)
    cold = None
    if study.cold_trips:
        cold = cold_start_eval(
            study.rankers["stod-ppa"].model, study.rankers["top"].ranking(), study.cold_trips
        )
    return study.reports, cold, study.oracle_accuracy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2", help="comma list of corpus/model seeds")
    ap.add_argument("--users", type=int, default=200)
    ap.add_argument("--locations", type=int, default=60)
    ap.add_argument("--clusters", type=int, default=6)
    ap.add_argument("--trips", type=int, default=30)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--cold-users", type=int, default=50)
    ap.add_argument("--user-types", type=int, default=250)
    ap.add_argument("--adherence", type=float, default=0.95)
    ap.add_argument("--member-pool", type=int, default=2)
    ap.add_argument("--context", default="causal", choices=["all", "causal"])
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--hdim", type=int, default=32)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--epochs", type=int, default=15)
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    t0 = time.perf_counter()
    per_method: dict[str, list] = {}
    cold_rows = []
    oracle = None
    for seed in seeds:
        reports, cold, oracle = run_seed(seed, args)
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


if __name__ == "__main__":
    main()
