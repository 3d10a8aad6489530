#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload once, at a toy geometry.

    python3 perfbench/smoke.py

Run from the repository root. For each workload in BENCHMARK.json it
runs ``run.py --tiny`` untraced and traced for one second each and
asserts that the result line carries exactly the metrics BENCHMARK.json
names, each with its unit and a finite value, and that no operation
failed (``fail_ratio`` is 0). It also checks that the benchmark refuses
to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits non-zero on the
first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def expect(ok, message):
    if not ok:
        raise SystemExit(f"smoke test failed: {message}")


def run(cwd, spec, workload, trace, tiny=True):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, declared, where):
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{where}: result keys {set(result)}")
    expect(result["correct"] is True, f"{where}: outputs incorrect\n{proc.stderr}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{where}: attempted {result['attempted']!r}")
    expect(result["failed"] == 0,
           f"{where}: fail_ratio {result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           f"{where}: missing {set(declared) - set(metrics)}, extra {set(metrics) - set(declared)}")
    for name, unit in declared.items():
        got = metrics[name]
        expect(set(got) == {"value", "unit"}, f"{where}: {name} has keys {set(got)}")
        expect(got["unit"] == unit, f"{where}: {name} in {got['unit']!r}, declared {unit!r}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{where}: {name} = {got['value']!r}")


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's paths: no program to run."""
    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "_work")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0, tiny=False)
        expect(proc.returncode != 0, "bare directory: benchmark exited 0")
        expect(not proc.stdout.strip(), f"bare directory: printed {proc.stdout!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            where = f"{wl['name']} --trace {trace}"
            check_result(run(ROOT, spec, wl["name"], trace), declared[trace], where)
            print(f"ok  {where}", flush=True)
    check_bare_directory(spec)
    print("ok  bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
