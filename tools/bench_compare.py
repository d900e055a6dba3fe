#!/usr/bin/env python3
"""Compare two bench JSON files and warn on regressions.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10]
                        [--strict] [--strict-paths SUBSTR[,SUBSTR...]]

Walks both JSON trees, pairs numeric leaves by path (array elements pair
by index), and reports every metric that moved by more than the threshold
relative to the baseline. Direction matters: for most metrics bigger is
worse only when the name says so. A metric regresses when

  * its name suggests "lower is better" (latency, time, percentiles,
    shed/abandon counts, failovers, trips, *_bytes footprints, heap
    allocation counts) and it grew, or
  * its name suggests "higher is better" (rate as in hit_rate, speedup,
    throughput, *_per_sec, completed) and it shrank.

Other numeric fields (configuration echoes, arrival counts) are reported
as informational drift but never count as regressions.

Exit code is 0 unless --strict is given AND a regression was found, so CI
can run this as a warn-only step by default. --strict-paths upgrades just
the regressions whose path contains one of the given substrings to fatal
(exit 1) while everything else stays warn-only — for gating a few
load-bearing metrics (e.g. metrics_throughput_ratio) without making every
noisy timing a build breaker. A baseline leaf that --strict-paths matches
but the current record lacks (renamed or dropped) is fatal too.
"""

import argparse
import json
import sys

LOWER_IS_BETTER = (
    "p50",
    "p99",
    "latency",
    "_us",
    "_sec",
    "_ms",
    "time",
    "shed",
    "abandoned",
    "failover",
    "trips",
    "skips",
    "deadline_limited",
    "recovery_periods",
    "_bytes",
    "allocs",
)
HIGHER_IS_BETTER = (
    "per_sec",
    "speedup",
    "hit_rate",
    "throughput",
    "completed",
)
# Not performance at all: run-shape echoes that legitimately differ.
IGNORE = ("seed", "smoke", "threads", "replications", "trials", "steps")


def leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaves(value, f"{path}[{index}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def direction(path):
    lowered = path.lower()
    if any(token in lowered for token in IGNORE):
        return "ignore"
    # "per_sec" must win over the generic "_sec" duration suffix.
    if any(token in lowered for token in HIGHER_IS_BETTER):
        return "higher"
    if any(token in lowered for token in LOWER_IS_BETTER):
        return "lower"
    return "info"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10)
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when a regression exceeds the threshold")
    parser.add_argument("--strict-paths", default="",
                        help="comma-separated path substrings whose "
                             "regressions are fatal even without --strict")
    args = parser.parse_args()
    strict_paths = [token for token in args.strict_paths.split(",") if token]

    with open(args.baseline) as handle:
        base = dict(leaves(json.load(handle)))
    with open(args.current) as handle:
        curr = dict(leaves(json.load(handle)))

    regressions = []
    fatal = []
    drifted = []
    for path in sorted(base.keys() & curr.keys()):
        sense = direction(path)
        if sense == "ignore":
            continue
        old, new = base[path], curr[path]
        if old == new:
            continue
        delta = (new - old) / abs(old) if old else float("inf")
        if abs(delta) <= args.threshold:
            continue
        entry = f"{path}: {old:g} -> {new:g} ({delta:+.1%})"
        worse = (sense == "lower" and new > old) or (
            sense == "higher" and new < old)
        if worse:
            regressions.append(entry)
            if any(token in path for token in strict_paths):
                fatal.append(entry)
        else:
            drifted.append(f"{entry} [{sense}]")

    label = f"threshold {args.threshold:.0%}"
    if regressions:
        print(f"::warning::{len(regressions)} bench regression(s) vs "
              f"{args.baseline} ({label}):")
        for entry in regressions:
            print(f"  REGRESSION  {entry}")
    if drifted:
        print(f"drift beyond {label} (not scored as regression):")
        for entry in drifted:
            print(f"  drift       {entry}")
    if not regressions and not drifted:
        print(f"no metric moved beyond {label}")

    missing = sorted(base.keys() - curr.keys())
    if missing:
        print(f"metrics dropped since baseline: {', '.join(missing[:8])}"
              + (" ..." if len(missing) > 8 else ""))
    dropped = [path for path in missing
               if any(token in path for token in strict_paths)]
    if dropped:
        print(f"::error::{len(dropped)} gated metric(s) missing from "
              f"{args.current} (--strict-paths {args.strict_paths}):")
        for path in dropped:
            print(f"  DROPPED     {path}")
    if fatal:
        print(f"::error::{len(fatal)} gated metric(s) regressed "
              f"(--strict-paths {args.strict_paths}):")
        for entry in fatal:
            print(f"  FATAL       {entry}")

    return 1 if (fatal or dropped or (args.strict and regressions)) else 0


if __name__ == "__main__":
    sys.exit(main())
