#!/usr/bin/env python3
"""Runs scripts/pass_breakdown.py on tests/data/pass_breakdown_trace.json,
a synthetic perfbench trace with two embedded joins (grace, nested-loops)
and spans of other pids that must be ignored, and checks the breakdown.

Usage: pass_breakdown_test.py SOURCE_DIR CMAKE_CACHE
"""

import json
import os
import subprocess
import sys
import tempfile


def main():
    source, cache = sys.argv[1], sys.argv[2]
    script = os.path.join(source, "scripts", "pass_breakdown.py")
    trace = os.path.join(source, "tests", "data", "pass_breakdown_trace.json")
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "passes.json")
        run = lambda *extra: subprocess.run(
            [sys.executable, script, trace, "--cmake-cache", cache, *extra],
            capture_output=True, text=True)
        for side in ("parent", "change"):
            r = run("--json", out, "--side", side)
            check(r.returncode == 0, f"{side}: exit {r.returncode} {r.stderr}")
        check("grace" in r.stdout and "nested-loops" in r.stdout,
              "table names both drivers")
        with open(out) as f:
            doc = json.load(f)
        check(sorted(doc["sides"]) == ["change", "parent"],
              "both sides kept in one file")
        side = doc["sides"]["change"]
        drivers = side["drivers"]
        check(list(drivers) == ["grace", "nested-loops"], "two joins found")
        grace = drivers["grace"]
        check(grace["joins"] == 1, "one grace join")
        check(grace["wall_ms"]["median"] == 50.0, "grace wall")
        check(grace["wall_ms"]["iqr"] == 0.0, "one sample has no spread")
        want = {"setup": 10.0, "pass0": 15.0, "pass1": 12.0005,
                "bucket-join": 8.0}
        got = {k: v["median"] for k, v in grace["passes"].items()}
        check(list(got) == list(want), f"grace pass labels {list(got)}")
        check(all(abs(got[k] - want[k]) < 1e-9 for k in want),
              f"grace pass times {got}")
        nl = {k: v["median"] for k, v in drivers["nested-loops"]["passes"]
              .items()}
        check(abs(nl["pass1"] - 8.9004) < 1e-9 and "index-attach" not in nl,
              f"nested-loops passes {nl}")
        prov = side["provenance"]
        for key in ("git_sha", "compiler", "build_type", "cpu_model", "cores",
                    "numa_nodes", "ram_gib"):
            check(key in prov, f"provenance has {key}")
        check(prov["traces"] == ["pass_breakdown_trace.json"],
              "provenance lists the trace")

        # Skipping each driver's first join leaves nothing: an error.
        r = run("--skip", "1")
        check(r.returncode != 0, "--skip 1 over one join per driver fails")

    for f in failures:
        print("FAIL:", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
