#!/usr/bin/env python3
"""Benchmark for odnext: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload accept-train --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src; the
workload's corpus is generated from --seed.  After the set-ups, passes
repeat until --seconds have been measured.  With --trace 1 the passes
alternate untraced and traced, and the per-layer metrics come from the
traced ones.  Human-readable lines go first; the last line of stdout is
the JSON result.  Every run also writes perfbench/out/<run>.json with the
environment, sample summaries, failures and (traced) spans.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import stats
from layers import layer_metrics, targets, unit_of
from spans import Tracer, accounting_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run sets up at least SETUPS times, and more while the set-ups have
# taken less than SETUP_SECONDS: a cheap set-up is then timed often
# enough for its median to hold still.  setup_s is the median.
SETUPS = 3
SETUP_SECONDS = 1.0
BLAS_THREADS = "1"  # one thread: a run stays within one of the 2 cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, gated in BENCHMARK.json).  map is deterministic for a
# seed and moves about 0.09 (interquartile range over median) across
# seeds 0-9 on every workload.  acc1 moves 0.17 on accept-train and 0.24
# on the scale profile, too close to the largest bound to gate.
# error_rate is 0 when the program is right, so it is the result line's
# failed/attempted.
END_TO_END = {
    "setup_s": ("s", True),
    "wall_s": ("s", True),
    "peak_rss_mb": ("MB", True),
    "train_steps_per_s": ("1/s", True),
    "final_loss": ("nats", True),
    "eval_queries_per_s": ("1/s", True),
    "predict_p50_ms": ("ms", True),
    "predict_p99_ms": ("ms", True),
    "cli_predict_ms": ("ms", True),
    "cold_queries_per_s": ("1/s", True),
    "acc1": ("ratio", False),
    "map": ("ratio", True),
    "error_rate": ("ratio", False),
}
EXTRA_LAYER = {
    "autograd.tape_nodes_per_step": "count",
    "trace.overhead_s": "s",
    "evaluation.acc1": "ratio",
    "evaluation.map": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_program():
    """Import odnext from ./src with the BLAS thread count pinned."""
    if not (SRC / "odnext" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'odnext'} is missing")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import odnext

    if Path(odnext.__file__).resolve().parent != SRC / "odnext":
        raise SystemExit(f"error: imported odnext from {odnext.__file__}, not {SRC}")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "odnext").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def reset_peak_rss() -> bool:
    """Hand freed memory back to the system, then reset this process's
    peak-RSS mark (Linux: /proc/self/clear_refs), so that a later peak
    is that of the work done after the reset."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)  # glibc keeps freed heap resident
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(since_reset: bool) -> float:
    """Peak resident memory since the last reset, else of the whole run."""
    if since_reset:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: set-ups, then passes until the time is used."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool):
        from speed import SpeedProbe
        from workloads import Recorder

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.probe = SpeedProbe()
        self.rec = Recorder(self.probe)
        self.checks = stats.Checks()
        self.tracer = Tracer() if traced else None
        self.setup_units: list = []
        self.pass_units: list = []
        self.peak_reset = False  # is peak_rss_mb the passes' own peak?

    @contextmanager
    def _traced(self, units: list):
        """Trace one set-up or pass, keep its spans and check them."""
        mark = len(self.tracer.spans)
        with self.tracer.installed(targets(), self._restored):
            yield
        unit = self.tracer.spans[mark:]
        problems = accounting_problems(unit)
        self.checks.check(not problems, f"trace accounting: {problems[:3]}")
        units.append(unit)

    def _restored(self, wrong: list[str]) -> None:
        self.checks.check(not wrong, f"names not restored after tracing: {wrong}")

    def execute(self, workdir: str) -> None:
        with self.probe:
            state = None
            n, start = 0, time.perf_counter()
            while n < SETUPS or time.perf_counter() - start < SETUP_SECONDS:
                n += 1
                t = self.rec.start()
                with self._traced(self.setup_units) if self.traced else nullcontext():
                    state = self.workload.setup(self.seed, workdir, self.rec, self.checks)
                self.rec.time("setup_s", [self.rec.stop(t)])

            # peak_rss_mb covers the passes only: on scale-serve the set-ups
            # train, and their peak would hide the serving path's.
            self.peak_reset = reset_peak_rss()

            min_passes = 2 if self.traced else 1
            start = time.perf_counter()
            n = 0
            while n < min_passes or time.perf_counter() - start < self.seconds:
                traced_pass = self.traced and n % 2 == 1
                with self._traced(self.pass_units) if traced_pass else nullcontext():
                    wall = self.workload.run_pass(state, self.rec, self.checks)
                self.rec.time("traced_wall_s" if traced_pass else "wall_s", [wall])
                n += 1

    def end_to_end(self) -> dict:
        v, last = self.rec.values, self.rec.last
        latencies = v("predict_ms")
        if stats.beyond(len(latencies), 99.0) < stats.MIN_BEYOND:
            self.checks.check(False, f"only {len(latencies)} predict samples for a p99")
        return {
            "setup_s": statistics.median(v("setup_s")),
            "wall_s": statistics.median(v("wall_s")),
            "peak_rss_mb": peak_rss_mb(self.peak_reset),
            "train_steps_per_s": statistics.median(v("train_steps_per_s")),
            "final_loss": last["final_loss"],
            "eval_queries_per_s": statistics.median(v("eval_queries_per_s")),
            "predict_p50_ms": statistics.median(latencies),
            "predict_p99_ms": stats.percentile(latencies, 99.0),
            "cli_predict_ms": statistics.median(v("cli_predict_ms")),
            "cold_queries_per_s": statistics.median(v("cold_queries_per_s")),
            "acc1": last["acc1"],
            "map": last["map"],
            "error_rate": self.checks.error_rate,
        }

    def per_layer(self, e2e: dict) -> dict:
        values = layer_metrics(self.setup_units, self.pass_units)
        values["trace.overhead_s"] = statistics.median(
            self.rec.values("traced_wall_s")
        ) - statistics.median(self.rec.values("wall_s"))
        values["evaluation.acc1"] = e2e["acc1"]
        values["evaluation.map"] = e2e["map"]
        return values

    def sample_summaries(self) -> dict:
        """Median, tail and count of every timed sample, normalised and raw."""
        return {
            name: {
                "normalised": stats.summary(self.rec.values(name)),
                "raw": stats.summary(self.rec.values(name, normalise=False)),
                "values": self.rec.values(name) if len(self.rec.timed[name]) <= 50 else None,
            }
            for name in self.rec.timed
        }


# End-to-end metric -> the timed sample it summarises.
SAMPLED = {
    "setup_s": "setup_s",
    "wall_s": "wall_s",
    "train_steps_per_s": "train_steps_per_s",
    "eval_queries_per_s": "eval_queries_per_s",
    "predict_p50_ms": "predict_ms",
    "predict_p99_ms": "predict_ms",
    "cli_predict_ms": "cli_predict_ms",
    "cold_queries_per_s": "cold_queries_per_s",
}


def table_lines(summaries: dict, e2e: dict) -> list[str]:
    """Every end-to-end metric by name with its unit; sampled ones with
    their median, tail percentile, count and the raw (unnormalised) median."""
    lines = []
    for name, (unit, gated) in END_TO_END.items():
        note = ""
        if name in SAMPLED:
            norm, raw = summaries[SAMPLED[name]]["normalised"], summaries[SAMPLED[name]]["raw"]
            tail = f", p{norm['tail_pct']:g} {norm['tail']:.6g}" if norm["tail_pct"] else ""
            note = f"  median {norm['median']:.6g}{tail}, n={norm['n']}; raw median {raw['median']:.6g}"
        if not gated:
            note += "  [not gated]"
        lines.append(f"{name:20s} {e2e[name]:14.6g} {unit:6s}{note}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        run.execute(workdir)

    e2e = run.end_to_end()
    summaries = run.sample_summaries()
    print("env " + json.dumps(env, sort_keys=True))
    for line in table_lines(summaries, e2e):
        print(line)
    for what in run.checks.failures[:20]:
        print(f"FAILED: {what}", file=sys.stderr)

    if args.trace:
        metrics = run.per_layer(e2e)
        units = {m: EXTRA_LAYER.get(m) or unit_of(m) for m in metrics}
        for name, value in metrics.items():
            print(f"{name:32s} {value:14.6g} {units[name]}")
    else:
        metrics = {name: e2e[name] for name, (_, gated) in END_TO_END.items() if gated}
        units = {name: END_TO_END[name][0] for name in metrics}

    record = {
        "env": env,
        "end_to_end": e2e,
        "samples": summaries,
        "peak_rss_scope": "passes" if run.peak_reset else "run",
        "reference": {
            "samples": len(run.probe.took),
            "median_s": statistics.median(run.probe.took),
            "nominal_s": run.probe.nominal,
        },
        "metrics": metrics,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "failures": run.checks.failures,
    }
    if run.tracer is not None:
        record["spans"] = [s.as_row() for s in run.tracer.spans]
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / out_name).write_text(json.dumps(record) + "\n")

    print(
        json.dumps(
            {
                "correct": run.checks.failed == 0,
                "attempted": run.checks.attempted,
                "failed": run.checks.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
