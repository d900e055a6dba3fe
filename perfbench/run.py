#!/usr/bin/env python3
"""The repository benchmark: POST /locate through the real confcall_serve.

    python3 perfbench/run.py --workload wire-single --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

Builds the daemon and the benchmark's binaries from source (CMake, into
.bench_build/perfbench), then:

  --trace 0  drives the daemon open-loop (perfbench_wire) and prints the
             end-to-end metrics;
  --trace 1  runs a short wire phase for the daemon's own counters, then
             the in-process traced replay (perfbench_replay), and prints
             the per-layer metrics with a table closing the layer p50s
             to the wire p50.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics; a failed check reads "correct": false. `--workload all` runs
every workload in turn and exits 1 when any check failed. Every run
also writes a result file with its provenance under
.bench_build/perfbench/results/. Workload shapes, reference rates, rate
ladders and latency limits live in perfbench/workloads.json; README.md
explains them.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
TARGETS = ["perfbench_wire", "perfbench_replay", "confcall_serve"]
SETUP_STARTS = 21  # daemon starts per run; setup_s is their median
REFINE = 3  # bisection rungs after the ladder climb


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once and brings the three targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("not inside the confcall source tree; nothing to build")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + TARGETS)
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return {
        "wire": os.path.join(out_dir, "perfbench_wire"),
        "replay": os.path.join(out_dir, "perfbench_replay"),
        "serve": os.path.join(out_dir, "confcall", "tools", "confcall_serve"),
    }


def provenance(out_dir):
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    if sha == "unknown":
        # Not a git checkout: fingerprint the sources instead.
        digest = hashlib.sha256()
        for top in ("src", "tools"):
            for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
                dirs.sort()
                for name in sorted(files):
                    with open(os.path.join(base, name), "rb") as f:
                        digest.update(name.encode() + f.read())
        sha = "tree-sha256:" + digest.hexdigest()[:16]
    compiler = "unknown"
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    try:
                        compiler = subprocess.run(
                            [path, "--version"], capture_output=True, text=True,
                            timeout=10).stdout.splitlines()[0]
                    except (OSError, subprocess.SubprocessError, IndexError):
                        compiler = path
    return {"nproc": os.cpu_count(), "git_sha": sha, "build_type": BUILD_TYPE,
            "compiler": compiler, "host": platform.machine()}


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return proc


def daemon_shape(spec):
    """What the workload's daemon flags set up: scenario, shard count,
    step cadence and fleet areas, with confcall_serve's defaults for the
    flags they leave out (dense-urban, no shards, 10 ms steps, 4 areas
    per shard). The wire run and the replay both take them from here."""
    flags = spec["daemon"]

    def flag(name, default):
        return flags[flags.index(name) + 1] if name in flags else default

    shards = int(flag("--shards", 0))
    return {"scenario": flag("--scenario", "dense-urban"), "shards": shards,
            "step_ms": int(flag("--step-ms", 10)),
            "areas": int(flag("--fleet-areas", 4 * shards))}


def wire_flags(spec, seed, workdir, out):
    return ["--seed", str(seed), "--workdir", workdir, "--out", out,
            "--process", spec["process"], "--batch", str(spec["batch"]),
            "--areas", str(daemon_shape(spec)["areas"]),
            "--scrape-hz", str(spec["scrape_hz"]),
            "--strict", "1" if spec["strict"] else "0"] + (
                ["--limit-us", str(spec["limit_us"])] if spec["ladder"] else [])


def run_wire(bins, spec, seed, workdir, daemon, name, extra):
    out = os.path.join(workdir, name + ".json")
    cmd = ([bins["wire"]] + wire_flags(spec, seed, workdir, out) + extra +
           ["--", bins["serve"]] + daemon)
    run_checked(cmd, timeout=170)
    with open(out) as f:
        result = json.load(f)
    for artifact in ("metrics.prom", "traces.json"):
        src = os.path.join(workdir, artifact)
        if os.path.exists(src):
            shutil.move(src, os.path.join(workdir, name + "." + artifact))
    return result


def daemon_command(spec, workdir, bins, seed):
    """The daemon flags; on ops-degraded also writes the warm-restart
    checkpoint the measured daemon starts from (set-up, not measured)."""
    daemon = list(spec["daemon"])
    if "checkpoint_every_ms" not in spec:
        return daemon
    ckpt = os.path.join(workdir, "warm.ckpt")
    every = str(spec["checkpoint_every_ms"])
    prep = run_wire(bins, spec, seed, workdir,
                    daemon + ["--state-out", ckpt, "--checkpoint-every-ms", every],
                    "prepare", ["--ref-rate", str(spec["ref_rate"]), "--ref-s", "1"])
    if prep["failures"] or not os.path.isfile(ckpt):
        fail("could not prepare the warm-restart checkpoint: %s" % prep["failures"])
    return daemon + ["--state-in", ckpt,
                     "--state-out", os.path.join(workdir, "live.ckpt"),
                     "--checkpoint-every-ms", every]


def prom_sums(text):
    """Sums every Prometheus sample by metric name (labels erased)."""
    sums = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)", line)
        if match:
            sums[match.group(1)] = sums.get(match.group(1), 0.0) + float(match.group(3))
    return sums


def ratio(num, den):
    return num / den if den else 0.0


def p99_of_counts(hist):
    """Nearest-rank p99 of a histogram given as counts per integer value."""
    total = sum(hist)
    if total == 0:
        return 0.0
    rank = max(1, (99 * total + 99) // 100)
    seen = 0
    for value, count in enumerate(hist):
        seen += count
        if seen >= rank:
            return float(value)
    return float(len(hist) - 1)


def capacity(wire, batch, limit_us):
    """The ladder's capacity in calls/s. perfbench_wire climbs the ladder
    until a rate fails twice (a rung passes when its p90 is within the
    limit, nothing failed and the generator kept up), then bisects
    between the last passing rate (capacity_lo) and that failing one
    (capacity_hi). The result interpolates on the p90 between the two."""
    final = {}
    for phase in wire["phases"]:
        if phase["name"].startswith(("rung", "refine")):
            final[phase["rate"]] = phase
    lo, hi = wire["capacity_lo"], wire["capacity_hi"]
    if lo == 0:
        first = final[min(final)]
        p90 = first["latency_us"]["p90"] or float("inf")
        return first["rate"] * batch * min(1.0, limit_us / p90)
    if hi == 0:
        return lo * batch
    p_low = final[lo]["latency_us"]["p90"]
    p_high = final[hi]["latency_us"]["p90"]
    share = 0.0
    if p_high is not None and p_high > p_low:
        share = min(1.0, max(0.0, (limit_us - p_low) / (p_high - p_low)))
    return (lo + share * (hi - lo)) * batch


def phase_plan(spec, seconds):
    """Splits the run's measured seconds: 70% reference phase, the rest
    shared by the ladder rungs and the bisection rungs. A workload
    without a ladder spends them all in the reference phase."""
    if not spec["ladder"]:
        return seconds, 0
    ref_s = 0.7 * seconds
    rung_s = max(0.5, 0.3 * seconds / (len(spec["ladder"]) + REFINE))
    return ref_s, rung_s


def run_end_to_end(bins, spec, seed, seconds, workdir, checks, record):
    daemon = daemon_command(spec, workdir, bins, seed)
    ref_s, rung_s = phase_plan(spec, seconds)
    wire = run_wire(bins, spec, seed, workdir, daemon, "wire",
                    ["--setup-repeats", str(SETUP_STARTS), "--warm-s", "1",
                     "--ref-rate", str(spec["ref_rate"]), "--ref-s", str(ref_s),
                     "--ladder", ",".join(str(r) for r in spec["ladder"]),
                     "--rung-s", str(rung_s), "--refine", str(REFINE)])
    record["daemon_command"] = wire["command"]
    record["setup_command"] = wire["setup_command"]
    record["wire"] = wire
    checks.extend(wire["failures"])
    phases = {p["name"]: p for p in wire["phases"]}
    ref = phases["ref"]
    rungs = [p for p in wire["phases"] if p["name"].startswith(("rung", "refine"))]
    answered = sum(p["calls"] for p in wire["phases"])
    final = prom_sums(read(os.path.join(workdir, "wire.metrics.prom")))
    check_daemon_counters(spec, final, answered, checks)
    if ref["latency_us"]["beyond_p99"] < 10:
        checks.append("reference phase too short for a p99 (%d beyond)"
                      % ref["latency_us"]["beyond_p99"])
    batch = spec["batch"]
    metrics = {
        "setup_s": (statistics.median(wire["setup_cpu_s"]), "s"),
        "daemon_user_cpu_us_per_call": (
            1e6 * ratio(ref["daemon_user_cpu_s"], ref["calls"]), "us"),
        "answered_ratio": (ratio(ref["attempted"] - ref["errors"] - ref["bad_bodies"],
                                 ref["attempted"]), "ratio"),
        "pages_per_call": (ratio(ref["pages"], ref["calls"]), "cells"),
        "rounds_p99": (p99_of_counts(ref["rounds_hist"]), "rounds"),
        "daemon_rss_mb": (wire["peak_rss_kib"] / 1024.0, "MiB"),
    }
    record["samples"] = {
        "setup_s": len(wire["setup_cpu_s"]),
        "daemon_user_cpu_us_per_call": ref["calls"],
        "answered_ratio": ref["attempted"],
        "pages_per_call": ref["calls"],
        "rounds_p99": ref["calls"],
        "scrape_p50_ms": len(ref["scrape_ms"]),
        "daemon_rss_mb": 1,
        "locate_p50_us": ref["latency_us"]["n"],
        "locate_p90_us": ref["latency_us"]["n"],
        "locate_p99_us": ref["latency_us"]["n"],
        "locate_p99_us_beyond": ref["latency_us"]["beyond_p99"],
        "capacity_rungs": len(rungs),
    }
    # Printed and kept, not gated: on a shared virtual machine, steal
    # time moves these by 30% to 10x between quiet and busy minutes, and
    # kernel time per call by up to 60% (README.md, "Noise").
    reported = {
        "setup_wall_s": [statistics.median(wire["setup_wall_s"]), "s"],
        "daemon_cpu_us_per_call": [1e6 * ratio(ref["daemon_cpu_s"], ref["calls"]), "us"],
        "locate_p50_us": [ref["latency_us"]["p50"], "us"],
        "locate_p90_us": [ref["latency_us"]["p90"], "us"],
        "locate_p99_us": [ref["latency_us"]["p99"], "us"],
        "scrape_p50_ms": [statistics.median(ref["scrape_ms"]) if ref["scrape_ms"]
                          else float("nan"), "ms"],
        "loadgen.lag_us_p99": [ref["lag_us"]["p99"], "us"],
        "daemon_rss_end_mb": [wire["peak_rss_kib_end"] / 1024.0, "MiB"],
    }
    if rungs:
        reported["capacity_calls_per_s"] = [capacity(wire, batch, spec["limit_us"]),
                                            "calls/s"]
    record["reported"] = reported
    record["ladder"] = [{"name": r["name"], "rate": r["rate"], "p90_us": r["latency_us"]["p90"],
                         "errors": r["errors"], "tail_lag_p50_us": r["tail_lag_p50_us"],
                         "pass": bool(r["pass"])} for r in rungs]
    return metrics, ref["attempted"], ref["errors"] + ref["bad_bodies"]


def check_daemon_counters(spec, final, answered, checks):
    calls_total = final.get("confcall_locate_calls_total", 0.0)
    if calls_total < answered:
        checks.append("daemon counted %d locate calls, the client got %d answers"
                      % (calls_total, answered))
    if not spec["strict"] and final.get("confcall_locate_retries_total", 0.0) <= 0:
        checks.append("no retries on a faulted workload: the fault path is not live")


def run_per_layer(bins, spec, seed, seconds, workdir, checks, record):
    daemon = daemon_command(spec, workdir, bins, seed)
    wire = run_wire(bins, spec, seed, workdir, daemon, "wire",
                    ["--setup-repeats", "1", "--warm-s", "1",
                     "--ref-rate", str(spec["ref_rate"]),
                     "--ref-s", str(0.35 * seconds)])
    record["daemon_command"] = wire["command"]
    record["wire"] = wire
    checks.extend(wire["failures"])
    ref = [p for p in wire["phases"] if p["name"] == "ref"][0]
    metrics_text = read(os.path.join(workdir, "wire.metrics.prom"))
    final = prom_sums(metrics_text)
    check_daemon_counters(spec, final, sum(p["calls"] for p in wire["phases"]), checks)

    shape = daemon_shape(spec)
    out = os.path.join(workdir, "replay.json")
    run_checked([bins["replay"], "--seed", str(seed), "--workdir", workdir,
                 "--out", out, "--scenario", shape["scenario"],
                 "--shards", str(shape["shards"]), "--areas", str(shape["areas"]),
                 "--step-ms", str(shape["step_ms"]),
                 "--batch", str(spec["batch"]), "--process", spec["process"],
                 "--rate", str(spec["ref_rate"]), "--seconds", str(0.55 * seconds),
                 "--max-requests", str(spec["replay"]["max_requests"]),
                 "--echo-rate", str(spec["ref_rate"]),
                 "--echo-seconds", str(0.15 * seconds)], timeout=170)
    with open(out) as f:
        replay = json.load(f)
    record["replay"] = replay
    if not replay["identical"]:
        checks.append("traced and untraced replays produced different outcomes")
    if not replay["spans_complete"]:
        checks.append("the tracer ring dropped spans")
    if replay["echo_errors"]:
        checks.append("the echo server failed %d requests" % replay["echo_errors"])

    fleet = shape["shards"] > 0
    tasks = final.get("confcall_fleet_tasks_total", 0.0)
    hits = final.get("confcall_locate_plan_cache_hits_total", 0.0)
    misses = final.get("confcall_locate_plan_cache_misses_total", 0.0)
    shared_hits = final.get("confcall_fleet_shared_plan_hits_total", 0.0)
    shared_misses = final.get("confcall_fleet_shared_plan_misses_total", 0.0)
    wire_p50 = ref["latency_us"]["p50"]
    layers = [("http.echo_rtt_us_p50", replay["echo_rtt_us"]["p50"]),
              ("locate_api.parse_us_p50", replay["parse_us"]["p50"]),
              ("fleet.locate_many_us_p50", replay["dispatch_us"]["p50"]),
              ("locate_api.encode_us_p50", replay["encode_us"]["p50"])]
    unexplained = wire_p50 - sum(v for _, v in layers)
    m = {
        "http.connect_us_p50": (replay["echo_connect_us"]["p50"], "us"),
        "http.server_us_p50": (replay["echo_server_us"]["p50"], "us"),
        "http.server_us_p99": (replay["echo_server_us"]["p99"], "us"),
        "http.echo_rtt_us_p50": (replay["echo_rtt_us"]["p50"], "us"),
        "http.rejections": (final.get("confcall_http_rejections_total", 0.0), "count"),
        "http.send_failed": (final.get("confcall_http_send_failed_total", 0.0), "count"),
        "serve.unexplained_us_p50": (unexplained, "us"),
        "serve.steps_per_s": (ratio(final.get("confcall_serve_steps_total", 0.0),
                                    wire["serving_s"]), "1/s"),
        "locate_api.parse_us_p50": (replay["parse_us"]["p50"], "us"),
        "locate_api.parse_us_p99": (replay["parse_us"]["p99"], "us"),
        "locate_api.parse_ns_per_call": (replay["parse_ns_per_call"]["p50"], "ns"),
        "locate_api.encode_us_p50": (replay["encode_us"]["p50"], "us"),
        "fleet.locate_many_us_p50": (replay["dispatch_us"]["p50"], "us"),
        "fleet.locate_many_us_p99": (replay["dispatch_us"]["p99"], "us"),
        "fleet.task_us_mean": (replay["task_us_mean"], "us"),
        # The single-service path runs each dispatch as one task.
        "fleet.tasks_per_dispatch": (ratio(tasks, final.get(
            "confcall_fleet_dispatches_total", 0.0)) if fleet else 1.0, "ratio"),
        "fleet.steal_frac": (ratio(final.get("confcall_fleet_steals_total", 0.0),
                                   tasks), "ratio"),
        "fleet.overflows": (final.get("confcall_fleet_queue_overflow_total", 0.0), "count"),
        "fleet.step_us_p50": (replay["step_us"]["p50"], "us"),
        "service.plan_us_p50": (replay["plan_us"]["p50"], "us"),
        "service.plan_us_p99": (replay["plan_us"]["p99"], "us"),
        "service.plan_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "fleet.shared_plan_hit_ratio": (ratio(shared_hits, shared_hits + shared_misses),
                                        "ratio"),
        "service.page_rounds_us_p50": (replay["page_rounds_us"]["p50"], "us"),
        # Mean, not median: most calls recover nothing, so the median
        # recovery span is empty even when recovery dominates the tail.
        "service.recovery_us_mean": (replay["recovery_us"]["mean"], "us"),
        "service.retries_per_call": (ratio(final.get("confcall_locate_retries_total", 0.0),
                                           final.get("confcall_locate_calls_total", 0.0)),
                                     "ratio"),
        "core.pages_over_ep": (ratio(final.get("confcall_locate_pages_sum", 0.0),
                                     final.get("confcall_locate_ep_predicted_sum", 0.0)),
                               "ratio"),
        "state_io.checkpoint_ms_p50": (replay["checkpoint_ms"]["p50"], "ms"),
        "state_io.checkpoint_ms_p99": (replay["checkpoint_ms"]["p99"], "ms"),
        "state_io.checkpoint_bytes": (replay["checkpoint_bytes"], "bytes"),
        "state_io.restore_ms": (replay["restore_ms"]["p50"], "ms"),
        "metrics.render_us_p50": (replay["render_us"]["p50"], "us"),
        "metrics.scrape_bytes": (float(len(metrics_text.encode())), "bytes"),
        "wire.locate_p50_us": (wire_p50, "us"),
        "wire.locate_p90_us": (ref["latency_us"]["p90"], "us"),
        "wire.locate_p99_us": (ref["latency_us"]["p99"], "us"),
        "loadgen.lag_us_p99": (ref["lag_us"]["p99"], "us"),
        "loadgen.inflight_max": (ref["inflight_max"], "count"),
        "trace.overhead_frac": (ratio(replay["dispatch_total_traced_us"],
                                      replay["dispatch_total_untraced_us"]) - 1.0,
                                "ratio"),
    }
    record["samples"] = {
        "wire_locate": ref["latency_us"]["n"],
        "wire_locate_beyond_p99": ref["latency_us"]["beyond_p99"],
        "echo": replay["echo_rtt_us"]["n"],
        "replay_requests": replay["requests"], "replay_calls": replay["calls"],
        "step": replay["step_us"]["n"], "plan_spans": replay["plan_us"]["n"],
        "page_rounds_spans": replay["page_rounds_us"]["n"],
        "recovery_spans": replay["recovery_us"]["n"],
        "checkpoints": replay["checkpoint_ms"]["n"], "restores": replay["restore_ms"]["n"],
        "renders": replay["render_us"]["n"],
    }
    record["closure"] = {"wire_locate_p50_us": wire_p50, "layers": dict(layers),
                         "unexplained_us": unexplained, "dispatch": (
                             "ServiceFleet::locate_many" if fleet
                             else "LocationService::locate_many")}
    print_layer_table(spec, m, record["closure"])
    attempted = ref["attempted"] + replay["requests"]
    return m, attempted, ref["errors"] + ref["bad_bodies"] + replay["echo_errors"]


def print_layer_table(spec, metrics, closure):
    print("per-layer metrics (%s)" % closure["dispatch"])
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.3f %s" % (name, value, unit))
    print("closure of the wire p50:")
    for name, value in closure["layers"].items():
        print("  %-32s %14.3f us" % (name, value))
    print("  %-32s %14.3f us" % ("serve.unexplained_us_p50", closure["unexplained_us"]))
    print("  %-32s %14.3f us" % ("= wire locate_p50_us", closure["wire_locate_p50_us"]))


def read(path):
    with open(path) as f:
        return f.read()


def selftest(bins, workloads, workdir):
    """Generator self-test: byte-identical schedules from one seed, and a
    SIGSTOP drill that must show in p99 and in the generator's lag."""
    spec = workloads["wire-single"]
    problems = []
    dumps = []
    for seed in (7, 7, 8):
        path = os.path.join(workdir, "schedule-%d-%d.txt" % (seed, len(dumps)))
        run_checked([bins["wire"]] + wire_flags(spec, seed, workdir, path + ".json") +
                    ["--ref-rate", str(spec["ref_rate"]), "--ref-s", "2",
                     "--ladder", ",".join(str(r) for r in spec["ladder"]),
                     "--rung-s", "1", "--dump-schedule", path], timeout=60)
        with open(path, "rb") as f:
            dumps.append(hashlib.sha256(f.read()).hexdigest())
    print("schedule sha256: seed 7 %s, seed 7 %s, seed 8 %s" % tuple(d[:16] for d in dumps))
    if dumps[0] != dumps[1]:
        problems.append("the same seed gave different schedules")
    if dumps[0] == dumps[2]:
        problems.append("different seeds gave the same schedule")

    stall_ms = 300
    results = {}
    for label, extra in (("steady", []),
                         ("stalled", ["--stall-at-ms", "1000", "--stall-ms", str(stall_ms)])):
        wire = run_wire(bins, spec, 7, workdir, spec["daemon"], "drill-" + label,
                        ["--ref-rate", str(spec["ref_rate"]), "--ref-s", "3"] + extra)
        ref = [p for p in wire["phases"] if p["name"] == "ref"][0]
        results[label] = ref
        problems.extend(wire["failures"])
        print("%-8s p50 %9.1f us  p99 %9.1f us  lag p99 %9.1f us  errors %d" % (
            label, ref["latency_us"]["p50"], ref["latency_us"]["p99"],
            ref["lag_us"]["p99"], ref["errors"]))
    stalled, steady = results["stalled"], results["steady"]
    if stalled["latency_us"]["p99"] - steady["latency_us"]["p99"] < 0.5 * stall_ms * 1000:
        problems.append("a %d ms stall did not show in locate_p99_us" % stall_ms)
    if stalled["lag_us"]["p99"] < 0.5 * stall_ms * 1000:
        problems.append("a %d ms stall did not show in loadgen.lag_us_p99" % stall_ms)
    for problem in problems:
        print("FAIL: " + problem)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload == "all":
        results = []
        for name in workloads:
            print("== " + name, flush=True)
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.exit(proc.returncode)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])
        sys.exit(0 if all(results) else 1)
    if not args.selftest and args.workload not in workloads:
        fail("--workload must be one of all, " + ", ".join(workloads))
    out_dir = build_dir()
    bins = build(out_dir)
    tag = "selftest" if args.selftest else "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace)
    workdir = os.path.join(out_dir, "runs", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if args.selftest:
        sys.exit(0 if selftest(bins, workloads, workdir) else 1)

    spec = workloads[args.workload]
    checks = []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(out_dir),
              "spec": spec, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    runner = run_per_layer if args.trace else run_end_to_end
    metrics, attempted, failed = runner(bins, spec, args.seed, args.seconds,
                                        workdir, checks, record)
    record["checks_failed"] = checks
    result = {"correct": not checks, "attempted": int(attempted), "failed": int(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["result"] = result
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    for check in checks:
        print("CHECK FAILED: " + check)
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print("  %-28s %14.3f %s" % (name, value, unit))
        for name, (value, unit) in record["reported"].items():
            print("  %-28s %14.3f %s  (reported, not gated)" % (name, value, unit))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
