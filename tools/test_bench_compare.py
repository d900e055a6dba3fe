#!/usr/bin/env python3
"""Exit-code checks for bench_compare.py over tiny JSON records.

Usage: test_bench_compare.py

Runs bench_compare.py on baseline/current pairs written to a temporary
directory and exits 1 if any case returns the wrong exit code.
"""

import json
import os
import subprocess
import sys
import tempfile

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bench_compare.py")
BASELINE = {"gated": {"locates_per_sec": 100.0}, "free_ratio": 1.0,
            "checkpoint_bytes": 1000}

# (name, current record, --strict-paths, expected exit code).
CASES = [
    ("strict leaf regresses",
     {"gated": {"locates_per_sec": 50.0}, "free_ratio": 1.0,
      "checkpoint_bytes": 1000}, "locates_per_sec", 1),
    ("strict leaf dropped",
     {"gated": {}, "free_ratio": 1.0, "checkpoint_bytes": 1000},
     "locates_per_sec", 1),
    ("non-strict leaf dropped",
     {"gated": {"locates_per_sec": 100.0}, "checkpoint_bytes": 1000},
     "locates_per_sec", 0),
    # A byte count is a footprint: it regresses when it grows.
    ("byte count grows",
     {"gated": {"locates_per_sec": 100.0}, "free_ratio": 1.0,
      "checkpoint_bytes": 2000}, "checkpoint_bytes", 1),
    ("byte count shrinks",
     {"gated": {"locates_per_sec": 100.0}, "free_ratio": 1.0,
      "checkpoint_bytes": 500}, "checkpoint_bytes", 0),
]


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as work:
        baseline = os.path.join(work, "baseline.json")
        current = os.path.join(work, "current.json")
        with open(baseline, "w") as handle:
            json.dump(BASELINE, handle)
        for name, record, strict, expected in CASES:
            with open(current, "w") as handle:
                json.dump(record, handle)
            code = subprocess.run(
                [sys.executable, COMPARE, baseline, current,
                 "--strict-paths", strict],
                stdout=subprocess.DEVNULL).returncode
            verdict = "ok" if code == expected else "FAIL"
            print(f"{verdict}  {name}: exit {code}, want {expected}")
            failures += code != expected
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
