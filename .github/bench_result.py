"""Verdict of a `perfbench/run.py` run, read from the last line of its output.

    python3 .github/bench_result.py OUT [METRIC ...]

The harness exits 0 even when its output checks fail, so this prints the
run's `correct` flag, its failed and attempted check counts and the value
of each named metric, and exits 0 only if the run was correct and every
named metric is positive (a metric at 0 means its traced entry point was
never reached).
"""

import json
import sys


def main(argv: list[str]) -> int:
    out, *names = argv
    with open(out, encoding="utf-8") as f:
        result = json.loads(f.read().splitlines()[-1])
    values = {name: result["metrics"][name]["value"] for name in names}
    print("correct:", result["correct"], "failed:", result["failed"], "of", result["attempted"])
    for name, value in values.items():
        print(f"  {name} = {value}")
    return 0 if result["correct"] is True and all(v > 0 for v in values.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
