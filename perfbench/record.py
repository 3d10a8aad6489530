#!/usr/bin/env python3
"""Run the benchmark over several seeds and record one trajectory entry.

    python3 perfbench/record.py --label seed

Run from the repository root. Each workload runs once per seed 1-10,
untraced, one process at a time, for the ``run_seconds`` that
BENCHMARK.json fixes, then once traced with seed 1 for the per-layer
table. The entry, written to ``perfbench/trajectory/BENCH_<label>.json``,
holds every run's metrics and, per workload and metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MACHINE_FACTS = ("cores", "cores_usable", "blas", "blas_version", "blas_threads", "numpy",
                 "scipy", "python", "machine", "git_sha", "seconds")
SEEDS = list(range(1, 11))


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    facts = next((json.loads(line[len("# facts "):]) for line in lines
                  if line.startswith("# facts ")), {})
    return json.loads(lines[-1]), facts


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": SEEDS,
             "facts": None, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            result, facts = run_once(spec, workload, seed, 0)
            entry["facts"] = entry["facts"] or {k: v for k, v in facts.items()
                                                if k in MACHINE_FACTS}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "loss_digest": facts.get("loss_digest"),
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {name: summarize([r[name] for r in runs]) for name in bounds}
        result, _ = run_once(spec, workload, SEEDS[0], 1)
        entry["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "per_layer": {"seed": SEEDS[0], **{k: v["value"] for k, v in result["metrics"].items()}}}
        for name, s in summary.items():
            flag = "" if s["spread"] is None or s["spread"] < bounds[name] / 3 else \
                "  <- above a third of the bound"
            print(f"  {name:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
    out = os.path.join(BENCH_DIR, "trajectory", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
