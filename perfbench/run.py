#!/usr/bin/env python3
"""feadapter benchmark: run one workload in one process on one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The program is imported from ``src/``
next to this directory; without it the benchmark exits non-zero and
prints no result.

``--trace 0`` warms up with one operation that also gives the peak
traced memory (tracemalloc), then runs operations back to back for
``--seconds`` and reports the end-to-end metrics. Between operations
it times the set-up of a second instance of the workload, after a
``gc.collect()``, until set-ups fill a tenth of the run. ``--trace 1``
traces one set-up, then alternates untraced and traced operations for
``--seconds`` and reports the per-layer metrics, each the median over
the traced operations. The spans are written to ``perfbench/_work/``.

Every operation's output is checked. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the machine facts and every
metric by name with its unit.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")
SRC_DIR = os.path.join(ROOT, "src")

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("clips_per_s", "1/s"), ("peak_mib", "MiB"))
# setup_s is the median of at least SETUP_REPEATS set-ups, run between
# the operations until they fill SETUP_SHARE of the run
SETUP_REPEATS, SETUP_SHARE = 9, 0.1

perf = time.perf_counter


def import_program():
    """Import feadapter from this checkout's ``src/``, never from elsewhere."""
    init = os.path.join(SRC_DIR, "feadapter", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"run.py: no feadapter sources at {init}; run from a full checkout")
    sys.path.insert(0, SRC_DIR)
    import feadapter
    if os.path.abspath(feadapter.__file__) != init:
        sys.exit(f"run.py: imported feadapter from {feadapter.__file__}, not {init}")
    return feadapter


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None                          # not one; git would look in the parents
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(args):
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(), "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
        "git_sha": git_sha(),
    }


class Runner:
    """Runs one workload's operations and keeps the tallies."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def run_op(self, timer=None):
        """Prepare, run and check one operation. Returns its time in
        seconds, or None if it failed. ``timer`` wraps the timed call."""
        from tracer import TraceIncomplete
        self.wl.prepare()
        self.attempted += 1
        t0 = perf()
        try:
            result = timer(self.wl.op) if timer else self.wl.op()
        except TraceIncomplete:
            raise
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf() - t0
        problem = self.wl.check(result)
        if problem:
            self._fail(problem)
            return None
        return elapsed

    def _fail(self, message):
        self.failed += 1
        if self.failed <= 3:
            print(f"operation {self.attempted} failed: {message}", file=sys.stderr)

    def loop(self, seconds, between=None):
        """Closed loop: each operation starts when the previous returns.
        ``between(start)`` runs after each operation, outside its time."""
        times = []
        start = perf()
        while not times or perf() - start < seconds:
            t = self.run_op()
            if t is not None:
                times.append(t)
            elif perf() - start >= seconds:
                break
            if between:
                between(start)
        return times


def end_to_end(runner, twin, seconds):
    """``twin`` is a second instance of the workload, used only to time
    set-up: its set-ups run between the operations, so that they sample
    the machine over the whole run, as the operations do."""
    wl = runner.wl
    wl.setup()
    twin.setup()                             # warm-up, untimed
    setups = []

    def time_setup():
        t0 = perf()
        twin.setup()
        setups.append(perf() - t0)

    def time_setups(start):
        gc.collect()
        while sum(setups) < SETUP_SHARE * (perf() - start):
            time_setup()

    peak = []

    def traced_memory(op):
        tracemalloc.start()
        try:
            return op()
        finally:
            peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    runner.run_op(traced_memory)             # warm-up, and the peak-memory pass
    times = runner.loop(seconds, time_setups)
    while len(setups) < SETUP_REPEATS:
        gc.collect()
        time_setup()
    if not times:
        sys.exit("run.py: every timed operation failed")
    import numpy as np
    ms = np.asarray(times) * 1e3
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "clips_per_s": wl.clips_per_op * len(times) / sum(times),
        "peak_mib": peak[0] / 2**20,
    }, len(times)


def per_layer(runner, seconds, package, facts):
    """Alternate untraced and traced operations for ``seconds``, so that
    both halves see the same machine state."""
    from tracer import LAYER_METRICS, Tracer, layer_metrics
    wl = runner.wl
    tr = Tracer(package)
    tr.install()
    try:
        root = tr.open("setup")
        t0 = perf()
        wl.setup()
        tr.close(root, "setup", t0)
        setup_layers = layer_metrics(tr.spans, root)
    finally:
        tr.uninstall()
    runner.run_op()                          # warm-up

    plain, traced, rows = [], [], []

    def traced_op(op):
        tr.install()
        tr.time_clips(wl.data)
        tr.check_s, tr.eval_start = 0.0, None
        idx = tr.open("op")
        t0 = perf()
        try:
            result = op()
        finally:
            tr.close(idx, "op", t0)
            tr.uninstall()
        _, start, end, _, _ = tr.spans[idx]
        traced.append(end - start - tr.check_s)
        rows.append(layer_metrics(tr.spans, idx))
        return result

    start = perf()
    while True:
        t = runner.run_op()
        if t is not None:
            plain.append(t)
        runner.run_op(traced_op)
        if perf() - start >= seconds:
            break
    if not rows or not plain:
        sys.exit("run.py: no traced or no untraced operation succeeded")
    os.makedirs(WORK_DIR, exist_ok=True)
    tr.dump(os.path.join(WORK_DIR, f"trace-{wl.name}-seed{facts['seed']}.jsonl"),
            {**facts, **wl.facts})

    values = {name: statistics.median(row[name] for row in rows)
              for name, _ in LAYER_METRICS if name in rows[0]}
    values["data.synth_s"] = setup_layers["data.synth_s"]
    values["config.load_ms"] = setup_layers["config.load_ms"]
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return values, len(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test geometry: every workload at a toy size")
    args = parser.parse_args(argv)

    package = import_program()
    sys.path.insert(0, BENCH_DIR)
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    facts = machine_facts(args)
    if facts["blas_threads"] not in (None, 1):
        sys.exit(f"run.py: BLAS runs {facts['blas_threads']} threads; the benchmark needs 1")
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir, args.tiny)
        runner = Runner(wl)
        if args.trace:
            values, measured = per_layer(runner, args.seconds, package, facts)
            units = LAYER_METRICS
        else:
            twin_dir = os.path.join(workdir, "twin")
            os.makedirs(twin_dir)
            twin = WORKLOADS[args.workload](ROOT, args.seed, twin_dir, args.tiny)
            values, measured = end_to_end(runner, twin, args.seconds)
            units = END_TO_END
    facts.update(wl.facts)

    print("# facts " + json.dumps(facts, sort_keys=True))
    print(f"# {wl.name}: {measured} measured operations, {runner.attempted} attempted, "
          f"{runner.failed} failed")
    print(f"{'fail_ratio':<32} {runner.failed / runner.attempted:.6g} ratio")
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<32} {values[name]:.6g} {unit}")
        alias = wl.aliases.get(name)
        if alias:
            print(f"{alias:<32} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
