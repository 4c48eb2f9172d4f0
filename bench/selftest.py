#!/usr/bin/env python3
"""Toy-size self-test of the benchmark, so the harness cannot rot unseen.

    python3 bench/selftest.py

Runs every workload in BENCHMARK.json at toy size, untraced and traced,
and checks that each run exits 0, passes its output checks and prints
every metric BENCHMARK.json names, with its unit.  It also checks that
the benchmark refuses to run without the program's sources.  Exits 0
when everything holds; prints each problem and exits 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int, wanted: dict) -> list[str]:
    where = "%s --trace %d" % (workload, trace)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["%s: exit %d\n%s" % (where, proc.returncode,
                                     proc.stderr[-2000:])]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append("%s: correct=%r attempted=%r failed=%r" % (
            where, result.get("correct"), result.get("attempted"),
            result.get("failed")))
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append("%s: metrics missing %s, unexpected %s" % (
            where, sorted(set(wanted) - set(metrics)),
            sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit or not isinstance(m.get("value"),
                                                   (int, float)):
            problems.append("%s: %s printed as %r, want unit %s"
                            % (where, name, m, unit))
        elif trace == 0 and not m["value"] > 0:
            problems.append("%s: end-to-end %s is %r" % (where, name,
                                                         m["value"]))
    return problems


def check_refuses_without_sources(spec_path: str) -> list[str]:
    """A directory holding only BENCHMARK.json and bench/ has no program:
    the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(spec_path, bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "ftl-churn",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["ran without sources: exit %d, stdout %r"
                % (proc.returncode, proc.stdout[-300:])]
    return []


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = check_refuses_without_sources(spec_path)
    for wl in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(wl["name"], trace, wanted[trace])
            print("%-12s trace %d: %s" % (wl["name"], trace,
                                          "ok" if not found else "FAILED"))
            problems += found
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
