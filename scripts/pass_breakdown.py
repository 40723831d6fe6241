#!/usr/bin/env python3
"""Per-driver pass breakdown of perfbench traces.

Usage:
    python3 scripts/pass_breakdown.py TRACE [TRACE ...] [--skip N]
        [--json OUT --side NAME] [--cmake-cache PATH]

Each TRACE is a file perfbench writes under --trace 1
(.bench_build/traces/<workload>-<seed>.trace.json). Embedded joins are
the complete ("X") spans of pid 2: an outermost span is one join, named
after its driver, and every span on the same tid that lies inside it in
time is one of its passes (setup, pass0, pass1, ...). For each driver the
script prints the median and interquartile range of the join's wall time
and of each pass label, over every join of every TRACE.

--skip N drops the first N joins of each driver in each TRACE (perfbench's
warm-up round makes one per driver and relation pair).

--json OUT also writes the numbers, under sides.NAME of OUT (an existing
OUT keeps its other sides, so two runs can put a parent and a change side
into one file), with a provenance block: git SHA of the source tree the
perfbench build came from, compiler and build type from its CMakeCache.txt
(--cmake-cache, default .bench_build/CMakeCache.txt), CPU model, cores,
NUMA nodes and RAM of this host.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

EMBEDDED_PID = 2
# Pass spans are laid end to end from the join's start in microseconds;
# allow for the rounding of the printed numbers.
EPSILON_US = 1.0


def fail(message):
    print(f"pass_breakdown: {message}", file=sys.stderr)
    sys.exit(1)


def joins_of(path):
    """[(driver, wall_ms, {label: ms})] of the embedded joins in `path`, in
    start order."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"{path}: {e}")
    by_tid = {}
    for e in events:
        if e.get("ph") == "X" and e.get("pid") == EMBEDDED_PID:
            by_tid.setdefault(e["tid"], []).append(e)
    joins = []
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        current = None
        for e in spans:
            if current is not None and (
                    e["ts"] + e["dur"] <= current["end"] + EPSILON_US):
                passes = current["passes"]
                passes[e["name"]] = passes.get(e["name"], 0.0) + e["dur"] / 1e3
                continue
            current = {"driver": e["name"], "ts": e["ts"],
                       "end": e["ts"] + e["dur"], "wall": e["dur"] / 1e3,
                       "passes": {}}
            joins.append(current)
    joins.sort(key=lambda j: j["ts"])
    return [(j["driver"], j["wall"], j["passes"]) for j in joins]


def summary(values):
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values)}


def breakdown(paths, skip):
    """{driver: {"joins": n, "wall_ms": summary, "passes": {label: summary}}}
    with drivers and pass labels in first-seen order."""
    walls, passes = {}, {}
    for path in paths:
        seen = {}
        for driver, wall, join_passes in joins_of(path):
            seen[driver] = seen.get(driver, 0) + 1
            if seen[driver] <= skip:
                continue
            walls.setdefault(driver, []).append(wall)
            labels = passes.setdefault(driver, {})
            for label, ms in join_passes.items():
                labels.setdefault(label, []).append(ms)
    if not walls:
        fail("no embedded join spans (pid 2) in the traces")
    return {driver: {"joins": len(walls[driver]),
                     "wall_ms": summary(walls[driver]),
                     "passes": {label: summary(v)
                                for label, v in passes[driver].items()}}
            for driver in walls}


def print_table(result):
    labels = []
    for d in result.values():
        labels += [label for label in d["passes"] if label not in labels]
    cell = lambda s: f"{s['median']:.2f} [{s['iqr']:.2f}]"
    header = ["driver", "joins", "wall"] + labels
    rows = [[driver, str(d["joins"]), cell(d["wall_ms"])] +
            [cell(d["passes"][label]) if label in d["passes"] else ""
             for label in labels]
            for driver, d in result.items()]
    widths = [max(len(r[c]) for r in [header] + rows)
              for c in range(len(header))]
    print("median [IQR] in ms")
    for r in [header] + rows:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)))


def read_cache(path):
    cache = {}
    try:
        with open(path) as f:
            for line in f:
                key, sep, value = line.strip().partition("=")
                if sep and not line.startswith(("#", "//")):
                    cache[key.split(":")[0]] = value
    except OSError as e:
        fail(f"{path}: {e}")
    return cache


def compiler_of(cache, cache_path):
    """'<id> <version> (<path>)' from the configure step's compiler file."""
    pattern = os.path.join(os.path.dirname(cache_path), "CMakeFiles", "*",
                           "CMakeCXXCompiler.cmake")
    found = {}
    for path in glob.glob(pattern):
        with open(path) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID",
                            "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith(f"set({key} "):
                        found[key] = line.split('"')[1]
    return (f"{found.get('CMAKE_CXX_COMPILER_ID', '?')} "
            f"{found.get('CMAKE_CXX_COMPILER_VERSION', '?')} "
            f"({cache.get('CMAKE_CXX_COMPILER', '?')})")


def git_sha(source_dir):
    def git(*args):
        return subprocess.run(["git", "-C", source_dir, *args],
                              capture_output=True, text=True).stdout.strip()
    sha = git("rev-parse", "HEAD")
    if not sha:
        return "unknown"
    return sha + ("-dirty" if git("status", "--porcelain") else "")


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    ram = int(line.split()[1]) * 1024
    except OSError:
        pass
    nodes = len(glob.glob("/sys/devices/system/node/node[0-9]*")) or 1
    return {"cpu_model": model, "cores": os.cpu_count(), "numa_nodes": nodes,
            "ram_gib": round(ram / 2**30, 1)}


def provenance(cache_path, traces, skip):
    cache = read_cache(cache_path)
    source = cache.get("CMAKE_HOME_DIRECTORY", os.path.dirname(cache_path))
    return {"git_sha": git_sha(source),
            "compiler": compiler_of(cache, cache_path),
            "build_type": cache.get("CMAKE_BUILD_TYPE") or "unknown",
            **host(),
            "traces": [os.path.basename(t) for t in traces],
            "skip": skip}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+")
    parser.add_argument("--skip", type=int, default=0)
    parser.add_argument("--json")
    parser.add_argument("--side", default="run")
    parser.add_argument("--cmake-cache",
                        default=os.path.join(".bench_build", "CMakeCache.txt"))
    args = parser.parse_args()
    if args.skip < 0:
        fail("--skip must not be negative")

    result = breakdown(args.traces, args.skip)
    print_table(result)
    if args.json:
        out = {"sides": {}}
        if os.path.exists(args.json):
            with open(args.json) as f:
                out = json.load(f)
        out["sides"][args.side] = {
            "provenance": provenance(args.cmake_cache, args.traces, args.skip),
            "drivers": result}
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
