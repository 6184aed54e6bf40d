"""Machine-speed normalisation for timings taken on a shared host.

On a host shared with other tenants, the same code runs up to 1.7 times
slower from one minute to the next.  So while a run measures, a SIGALRM
handler runs a small fixed reference task (small numpy calls and Python
objects, the program's own mix, but none of its code) every INTERVAL
seconds and records how long it took.  A timing taken over [a, b] is
divided by the reference time around [a, b] (a trimmed mean), relative
to NOMINAL: it reads as the seconds the operation would take with the
reference running at NOMINAL.  The handler's own time is subtracted from
every timing it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL = 0.02  # seconds between reference samples
NOMINAL = 3.5e-4  # seconds the reference takes in a run on a quiet host
MIN_SAMPLES = 20  # a timing is normalised by at least this many samples

clock = time.perf_counter


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents, backward):
        self.value, self.parents, self.backward = value, parents, backward


def reference() -> None:
    """A spread of small numpy calls, slotted objects and closures: the
    program's own mix, so contention slows both alike.  Its working set is
    a few KiB, so the cache state the program leaves behind barely changes
    its time and the program cannot move its own yardstick."""
    x = np.linspace(0.0, 1.0, 64)
    w = np.outer(x, x[:32]) / 32.0
    nodes = []
    for _ in range(10):
        a = w @ x[:32]
        b = np.exp(a - a.max())
        b /= b.sum()
        order = np.argsort(-b, kind="stable")
        d = np.concatenate([a, b])[order]
        e = np.where(d > 0.5, d, 0.01 * d).reshape(8, 8).sum(axis=1)
        f = np.tanh(e) * 0.5 + np.maximum(e, 0.0)
        g = np.zeros_like(f)
        np.add.at(g, order[:8] % 8, f)
        nodes.append(_Node(g, (a, b), lambda t, g=g: g * t))
    for n in nodes:
        n.backward(2.0)


@dataclass(frozen=True)
class Piece:
    """A timed interval, and the reference time the handler spent inside it."""

    start: float
    end: float
    probe: float

    @property
    def net(self) -> float:
        return self.end - self.start - self.probe


class SpeedProbe:
    def __init__(self, interval: float = INTERVAL, nominal: float = NOMINAL):
        self.interval = interval
        self.nominal = nominal
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0  # total handler time so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t = clock()
        reference()
        end = clock()
        self.at.append(t)
        self.took.append(end - t)
        self.busy += end - t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self) -> tuple[float, float]:
        return clock(), self.busy

    def stop(self, started: tuple[float, float]) -> Piece:
        t0, busy0 = started
        t1, busy1 = clock(), self.busy
        return Piece(t0, t1, busy1 - busy0)

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference time around [start, end], over NOMINAL."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = min(len(self.at), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no reference samples to normalise by")
        # Drop the slowest tenth: a sample that a long stall happened to
        # hit would otherwise swing a short window on its own.
        window = sorted(self.took[lo:hi])
        return statistics.fmean(window[: max(1, len(window) * 9 // 10)]) / self.nominal

    def seconds(self, pieces) -> float:
        """Normalised seconds of the pieces together."""
        return sum(p.net / self.slowdown(p.start, p.end) for p in pieces)
