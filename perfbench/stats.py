"""Sample summaries and output-check counting for the benchmark.

Pure Python on purpose: run.py imports this module before it has fixed
the BLAS thread settings, which must happen before numpy is imported.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct%
    of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples ranked strictly above the nearest-rank pct percentile."""
    return n - _rank(n, pct)


def tail(samples, min_beyond: int = MIN_BEYOND) -> tuple[float | None, float | None, int]:
    """(pct, value, n) for the highest percentile of TAIL_PERCENTILES with
    at least `min_beyond` samples beyond it; (None, None, n) when the
    sample is too small for any of them."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if beyond(n, pct) >= min_beyond:
            return pct, percentile(samples, pct), n
    return None, None, n


def summary(samples) -> dict:
    """Median plus the tail percentile, with the sample count."""
    pct, value, n = tail(samples)
    return {"median": statistics.median(samples), "tail_pct": pct, "tail": value, "n": n}


class Checks:
    """Counts checked operations; every failed check is kept, never hidden."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check_all(self, oks, what: str) -> None:
        """One operation per element of `oks`."""
        for i, ok in enumerate(oks):
            self.check(bool(ok), f"{what}[{i}]")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
