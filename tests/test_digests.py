"""The golden-output tool (`tests/digests.py`) covers every component it
documents, gives the same digests on two runs in one process, and tells a
component that only one side has from one that differs."""

import digests
from odnext.model import ATTEND_BLOCK, ATTENTION_CONTEXTS, VARIANTS


def test_every_component_is_present_and_two_runs_agree():
    first = digests.digests()
    expected = {
        f"{v}/{c}/{name}"
        for v in VARIANTS
        for c in ATTENTION_CONTEXTS
        for name in digests.MODEL_COMPONENTS
        if not (v == "encoder-only" and name in digests.ATTENDING_ONLY)
    } | {f"od-lstm/{name}" for name in digests.OD_LSTM_COMPONENTS} | {
        f"long/{v}/causal/{name}"
        for v in digests.LONG_VARIANTS
        for name in digests.LONG_COMPONENTS
    }
    assert set(first) == expected
    assert len(expected) == 139
    assert digests.differing(first, digests.digests()) == []


def test_compare_names_new_gone_and_differing_components():
    before = {"a/cache": "1", "a/keys-old": "2", "a/checkpoint": "3"}
    after = {"a/cache": "1", "a/keys": "4", "a/checkpoint": "5"}
    assert digests.comparison(before, after) == [
        "differs: a/checkpoint", "new: a/keys", "gone: a/keys-old",
    ]
    assert digests.comparison(before, before) == []


def test_long_histories_span_three_query_blocks():
    """Every long history, trained on or cold, runs a causal `attend` over
    at least three blocks of queries, so the long components cover the
    sums carried from block to block."""
    _, split, cohort = digests._long_world()
    lengths = [len(t) - 1 for t in split.train.trips_by_user + cohort]
    assert min(lengths) > 2 * ATTEND_BLOCK, lengths
