"""In-memory spans recorded by wrapping public callables from outside.

The program itself carries no instrumentation: during a traced pass the
benchmark replaces each traced name where it is looked up (a module
global or a class attribute) with a wrapper that records a span, and
puts the original object back afterwards.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

_MISSING = object()


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    count: float | None = None  # work done, when the layer has a count

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.count]


@dataclass(frozen=True)
class Target:
    """One traced name: `owner.attr` recorded as span `name`.

    `count(args, result)` may return the work a call did (steps encoded,
    bytes written, ...) or None.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(sid, parent, name, 0.0, 0.0)
            self.spans.append(span)
            self._open.append(sid)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if count is not None:
                span.count = count(args, result)
            return result

        return traced

    def install(self, targets) -> None:
        for t in targets:
            # Class attributes are read from __dict__ so that restoring puts
            # back the very object that was there, not a bound method.
            original = vars(t.owner).get(t.attr, _MISSING)
            if original is _MISSING:
                raise AttributeError(f"{t.owner!r} has no attribute {t.attr!r} to trace")
            self._patches.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t.name, t.count))

    def restore(self) -> list[str]:
        """Put every patched name back; return those that did not restore."""
        wrong = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr, _MISSING) is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return wrong

    @contextmanager
    def installed(self, targets, on_restore: Callable[[list[str]], None]):
        """Trace `targets` inside the block; report unrestored names."""
        try:
            self.install(targets)
            yield self
        finally:
            on_restore(self.restore())


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def covered(parent: Span, kids) -> float:
    """Length of the part of `parent` covered by the union of `kids`."""
    total = 0.0
    reach = parent.start
    for k in sorted(kids, key=lambda s: s.start):
        lo, hi = max(k.start, reach), min(k.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    kids = children_of(spans)
    return {s.id: s.duration - covered(s, kids.get(s.id, ())) for s in spans}


def accounting_problems(spans, tol: float = 1e-9) -> list[str]:
    """Children that escape their parent or overlap one another."""
    by_id = {s.id: s for s in spans}
    problems = []
    for pid, kids in children_of(spans).items():
        parent = by_id.get(pid)
        if parent is None:
            continue
        for k in kids:
            if k.start < parent.start - tol or k.end > parent.end + tol:
                problems.append(f"span {k.id} ({k.name}) escapes parent {pid} ({parent.name})")
        if sum(k.duration for k in kids) > parent.duration + tol:
            problems.append(f"children of span {pid} ({parent.name}) exceed it")
    return problems
