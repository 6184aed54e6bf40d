"""The golden-output tool (`tests/digests.py`) covers every component it
documents, gives the same digests on two runs in one process, and tells a
component that only one side has from one that differs."""

import digests
from odnext.model import ATTENTION_CONTEXTS, VARIANTS


def test_every_component_is_present_and_two_runs_agree():
    first = digests.digests()
    expected = {
        f"{v}/{c}/{name}"
        for v in VARIANTS
        for c in ATTENTION_CONTEXTS
        for name in digests.MODEL_COMPONENTS
        if not (v == "encoder-only" and name in digests.ATTENDING_ONLY)
    } | {f"od-lstm/{name}" for name in digests.OD_LSTM_COMPONENTS}
    assert set(first) == expected
    assert len(expected) == 131
    assert digests.differing(first, digests.digests()) == []


def test_compare_names_new_gone_and_differing_components():
    before = {"a/cache": "1", "a/keys-old": "2", "a/checkpoint": "3"}
    after = {"a/cache": "1", "a/keys": "4", "a/checkpoint": "5"}
    assert digests.comparison(before, after) == [
        "differs: a/checkpoint", "new: a/keys", "gone: a/keys-old",
    ]
    assert digests.comparison(before, before) == []
