"""The golden-output tool (`tests/digests.py`) covers every component it
documents and gives the same digests on two runs in one process."""

import digests
from odnext.model import ATTENTION_CONTEXTS, VARIANTS


def test_every_component_is_present_and_two_runs_agree():
    first = digests.digests()
    expected = {
        f"{v}/{c}/{name}"
        for v in VARIANTS
        for c in ATTENTION_CONTEXTS
        for name in digests.MODEL_COMPONENTS
        if not (v == "encoder-only" and name == "attention")
    } | {f"od-lstm/{name}" for name in digests.OD_LSTM_COMPONENTS}
    assert set(first) == expected
    assert len(expected) == 121
    assert digests.differing(first, digests.digests()) == []
