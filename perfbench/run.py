#!/usr/bin/env python3
"""The mmjoin benchmark: one command that builds, runs and checks.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Run it from the root of the repository. It builds perfbench and mmjoind
from the repository's sources into .bench_build/ (the first run configures
and compiles; later runs only re-check the build), runs one workload in a
scratch directory under .bench_build/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; --trace 1 also writes the run's spans to
.bench_build/traces/<workload>-<seed>.trace.json. perfbench/README.md
describes the workloads and every metric.
"""
import argparse
import collections
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("reference", "mix")
DRIVERS = ("nested-loops", "sort-merge", "mpsm", "grace", "hybrid-hash",
           "index-nl")
RUN_TIMEOUT_S = 150

JOIN_PASSES = {  # pass label -> per-layer metric
    "setup": "join.setup_ms",
    "pass0": "join.pass0_ms",
    "pass1": "join.pass1_ms",
    "sort+merge+join": "join.sort_merge_join_ms",
    "bucket-join": "join.bucket_join_ms",
    "index-build": "join.index_build_ms",
    "index-probe": "join.index_probe_ms",
}
STORE_PASSES = {
    "setup": "store.index_attach_ms",
    "index-probe": "store.index_probe_ms",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings perfbench and mmjoind up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the mmjoin sources (src/) are not next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench", "mmjoind"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))


def run_perfbench(args, trace_file):
    """Runs one workload; returns perfbench's raw samples."""
    run_dir = os.path.join(BUILD, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD, "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--mmjoind={os.path.join(BUILD, 'mmjoind')}"]
    if trace_file:
        cmd.append(f"--trace-file={trace_file}")
    # A session of its own, so that whatever perfbench leaves behind (an
    # mmjoind it could not stop) is killed with the group.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        fail(f"perfbench exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median(values):
    if not values:
        fail("a phase completed no operation")
    return statistics.median(values)


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def across_pairs(samples, stat, value):
    """Applies `stat` to `value` of each pair's samples, then combines the
    pairs by their geometric mean (arithmetic if a pair's figure is 0)."""
    pairs = {}
    for s in samples:
        v = value(s)
        if v is not None:
            pairs.setdefault(s["pair"], []).append(v)
    if not pairs:
        fail("a phase completed no operation")
    figures = [stat(v) for v in pairs.values()]
    if min(figures) <= 0:
        return statistics.fmean(figures)
    return math.exp(statistics.fmean(math.log(f) for f in figures))


def field(key):
    return lambda s: s[key]


def end_to_end(raw):
    metrics = {}
    for driver in DRIVERS:
        metrics[f"join.{driver}_ms"] = (across_pairs(
            [s for s in raw["embedded"] if s["driver"] == driver], median,
            field("ms")), "ms")
    service = raw["service"]
    metrics["service_p50_ms"] = (across_pairs(service, median, field("ms")),
                                 "ms")
    metrics["service_p90_ms"] = (across_pairs(
        service, lambda v: percentile(v, 90), field("ms")), "ms")
    metrics["store_open_ms"] = (across_pairs(raw["store"], median,
                                             field("open_ms")), "ms")
    metrics["store_probe_ms"] = (across_pairs(raw["store"], median,
                                              field("probe_ms")), "ms")
    metrics["setup_s"] = (
        median([sum(s.values()) for s in raw["setup"]]) / 1000, "s")
    return metrics


def pass_metrics(samples, names):
    return {name: (across_pairs(samples, median,
                                lambda s, label=label: s["passes"].get(label)),
                   "ms")
            for label, name in names.items()}


def per_layer(raw):
    metrics = {}
    for key in raw["setup"][0]:
        metrics["setup." + key] = (median([s[key] for s in raw["setup"]]),
                                   "ms")
    embedded = raw["embedded"]
    metrics.update(pass_metrics(embedded, JOIN_PASSES))
    metrics["join.unattributed_ms"] = (across_pairs(
        embedded, median, lambda s: s["ms"] - sum(s["passes"].values())),
        "ms")
    metrics["join.faults"] = (across_pairs(embedded, median,
                                           field("faults")), "count")
    service = raw["service"]
    metrics["svc.queue_ms"] = (across_pairs(service, median,
                                            field("queue_ms")), "ms")
    metrics["svc.exec_ms"] = (across_pairs(service, median,
                                           field("exec_ms")), "ms")
    metrics["svc.transport_ms"] = (across_pairs(
        service, median, lambda s: s["ms"] - s["queue_ms"] - s["exec_ms"]),
        "ms")
    metrics.update(pass_metrics(raw["store"], STORE_PASSES))
    # Sample counts: how many operations each figure above rests on.
    metrics["embedded.joins"] = (len(embedded), "count")
    metrics["service.queries_min_pair"] = (min(collections.Counter(
        s["pair"] for s in service).values()), "count")
    metrics["store.restarts"] = (len(raw["store"]), "count")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_file = os.path.join(
            BUILD, "traces", f"{args.workload}-{args.seed}.trace.json")
    raw = run_perfbench(args, trace_file)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
