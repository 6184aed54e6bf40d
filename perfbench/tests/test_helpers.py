"""Tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
from spans import Span, Target, Tracer, accounting_problems, self_times  # noqa: E402


# -- percentile with sample count ------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert stats.tail(list(range(1000))) == (99.0, 989, 1000)
    assert stats.tail(list(range(10_000)))[0] == 99.9
    assert stats.tail(list(range(999)))[0] == 90.0  # p99 would leave only 9 beyond
    assert stats.tail(list(range(100)))[0] == 90.0
    assert stats.tail(list(range(20)))[0] == 50.0
    assert stats.tail(list(range(19))) == (None, None, 19)


def test_summary_reports_median_and_count():
    s = stats.summary([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "tail_pct": None, "tail": None, "n": 3}


# -- error_rate counting ---------------------------------------------------


def test_checks_count_every_operation_and_keep_failures():
    c = stats.Checks()
    assert c.error_rate == 0.0
    c.check(True, "a")
    c.check(False, "b")
    c.check_all([True, False, False, True], "rows")
    assert (c.attempted, c.failed) == (6, 3)
    assert c.error_rate == pytest.approx(0.5)
    assert c.failures == ["b", "rows[1]", "rows[2]"]


# -- self time from nested spans -----------------------------------------


def test_self_time_subtracts_covered_children():
    spans = [
        Span(0, None, "fit", 0.0, 10.0),
        Span(1, 0, "encode", 1.0, 3.0),
        Span(2, 0, "backward", 4.0, 8.0),
        Span(3, 2, "inner", 5.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    kids = [s for s in spans if s.parent == 0]
    assert selfs[0] + sum(k.duration for k in kids) == spans[0].duration
    assert accounting_problems(spans) == []


def test_accounting_flags_escaping_and_overlapping_children():
    escaping = [Span(0, None, "p", 0.0, 1.0), Span(1, 0, "c", 0.5, 1.5)]
    assert accounting_problems(escaping)
    overlapping = [
        Span(0, None, "p", 0.0, 1.0),
        Span(1, 0, "a", 0.0, 0.8),
        Span(2, 0, "b", 0.2, 1.0),
    ]
    assert accounting_problems(overlapping)
    # Self time never goes negative, even on a broken trace.
    assert self_times(overlapping)[0] == pytest.approx(0.0)


# -- wrapper install / restore -------------------------------------------


class _Fake:
    def work(self, n):
        return fake_module.helper(n) + 1


def _helper(n):
    return n * 2


fake_module = types.SimpleNamespace(helper=_helper)


def test_wrappers_record_nested_spans_and_restore_originals():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original_method = vars(_Fake)["work"]
    restored = []
    targets = [
        Target(_Fake, "work", "fake.work"),
        Target(fake_module, "helper", "fake.helper", count=lambda args, result: args[0]),
    ]
    with tracer.installed(targets, restored.append):
        assert vars(_Fake)["work"] is not original_method
        assert _Fake().work(5) == 11
    assert restored == [[]]
    assert vars(_Fake)["work"] is original_method
    assert fake_module.helper is _helper
    outer, inner = tracer.spans
    assert (outer.name, outer.parent) == ("fake.work", None)
    assert (inner.name, inner.parent, inner.count) == ("fake.helper", outer.id, 5)
    assert outer.start < inner.start < inner.end < outer.end
    # Untraced again: no new spans.
    _Fake().work(1)
    assert len(tracer.spans) == 2


def test_restore_happens_when_the_traced_block_raises():
    tracer = Tracer()
    restored = []
    with pytest.raises(RuntimeError):
        with tracer.installed([Target(fake_module, "helper", "fake.helper")], restored.append):
            raise RuntimeError("boom")
    assert fake_module.helper is _helper
    assert restored == [[]]


def test_install_refuses_a_missing_name():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([Target(fake_module, "nope", "x")])


# -- the benchmark's declared metrics ------------------------------------


def test_benchmark_json_matches_the_metrics_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import layers
    import run

    gated = {n: unit for n, (unit, g) in run.END_TO_END.items() if g}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {m: layers.unit_of(m) for m in layers.LAYER_METRICS}
    expected.update(run.EXTRA_LAYER)
    assert per_layer == expected


# -- speed normalisation ---------------------------------------------------


def test_slowdown_is_a_trimmed_mean_over_a_widened_window():
    import speed

    probe = speed.SpeedProbe(nominal=1.0)
    probe.at = [float(i) for i in range(100)]
    probe.took = [2.0] * 100
    probe.took[50] = 100.0  # one stalled sample
    # A short interval borrows MIN_SAMPLES samples around it; the stalled
    # sample is in the slowest tenth and is dropped.
    assert probe.slowdown(50.0, 50.0) == pytest.approx(2.0)
    # A timing of 4 s net on a machine at half speed reads as 2 s.
    piece = speed.Piece(start=10.0, end=15.0, probe=1.0)
    assert piece.net == 4.0
    assert probe.seconds([piece]) == pytest.approx(2.0)


# -- peak memory -----------------------------------------------------------


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux peak-RSS reset")
def test_peak_rss_after_a_reset_excludes_the_earlier_peak():
    import numpy as np

    import run

    big = np.ones(40 * 2**20 // 8)  # 40 MiB, resident
    del big
    whole_run = run.peak_rss_mb(since_reset=False)
    assert run.reset_peak_rss()
    base = run.peak_rss_mb(since_reset=True)
    assert base < whole_run - 20
    again = np.ones(40 * 2**20 // 8)
    assert run.peak_rss_mb(since_reset=True) >= base + 30
    del again
