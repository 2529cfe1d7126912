"""Record the expected answers of every operation at seed 0.

Usage (from the root of a checkout): python3 perfbench/record.py

Runs each workload at the natural labels and writes the label-free
observations (see checks.py) to expected.json.  Run it only when an
operation is added or changed, and review the diff: the recorded answers
are what every later run is judged against.
"""

from __future__ import annotations

import json
import sys

import run
from checks import Judge
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    judge = Judge(None)
    for name in WORKLOADS:
        _, passes, _ = run.run(name, 0, 0, False, judge)
        bad = [f"{op}: {why}" for p in passes for op, why in p.failures.items()]
        bad += [p.problem for p in passes if p.problem]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
    (run.HERE / "expected.json").write_text(json.dumps(judge.observed, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
