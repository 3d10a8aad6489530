#!/usr/bin/env python3
"""Which statements of the program its real traffic never runs.

    python3 tests/traffic_trace.py [--src DIR]

``DIR`` is a ``src/`` directory holding the ``feadapter`` package (by
default this checkout's); the configs and the benchmark are those of
the tree that holds it. With a line tracer (``sys.settrace``, and
``threading.settrace`` for the threads the program starts) over the
package, it runs in one process:

- ``feadapter train``, ``eval`` and all three ``sweep`` kinds on
  ``configs/desk.cfg`` cut to 2 epochs, 4 clips per class and an eval
  every epoch;
- ``feadapter gradcheck`` on a 16-wide copy of that config;
- ``feadapter count-params`` on ``configs/vitb_reference.cfg``, as text
  and, through ``python -m feadapter``, as ``--json``;
- every workload that ``BENCHMARK.json`` lists, through
  ``perfbench/run.py``'s ``main``, for 0.1 s each at ``--trace 0`` and
  ``--trace 1``.

It then prints, module by module, each statement that never ran, with
its line number. A statement that only the tests reach is a candidate
for deletion; the ``raise`` of an input check is not. The run takes
about 40 s on one CPU.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark needs, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_CUT = {"train.epochs": 2, "data.clips_per_class": 4, "train.eval_every": 1}


def statements(path: str) -> dict[int, tuple[int, int]]:
    """Each statement of the module at ``path`` that compiles to code, by
    its first line, with the span of lines whose execution shows that it
    ran: a simple statement's own lines, a compound statement's header."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out[node.lineno] = (first, max(first, last))
    return out


class LineTracer:
    """The lines run in every file under one directory, in the calling
    thread and in every thread started while it is installed (the
    forward-only loop's workers)."""

    def __init__(self, directory: str):
        self.prefix = os.path.join(os.path.abspath(directory), "")
        self.lines: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def cut_config(src: str, dst: str, values: dict) -> str:
    """Copy the config at ``src`` to ``dst`` with ``values`` in place of its own."""
    with open(src, encoding="utf-8") as fh:
        text = fh.read()
    for key, value in values.items():
        text, n = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        if n != 1:
            sys.exit(f"traffic_trace.py: {src} sets {key!r} {n} times, not once")
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(text)
    return dst


def run_cli(argv: list[str], as_module: bool = False) -> None:
    """One ``feadapter`` command, or with ``as_module`` one
    ``python -m feadapter`` command, with its output swallowed."""
    from feadapter.cli import main
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        if as_module:
            argv0, sys.argv = sys.argv, ["feadapter", *argv]
            try:
                runpy.run_module("feadapter", run_name="__main__", alter_sys=True)
            except SystemExit as stop:
                code = stop.code
            finally:
                sys.argv = argv0
        else:
            code = main(argv)
    if code != 0:
        sys.exit(f"traffic_trace.py: feadapter {' '.join(argv)} exited {code}: {err.getvalue()}")


def run_workloads(tree: str) -> None:
    """Every workload of ``tree``'s benchmark through its ``perfbench/run.py``'s
    ``main``, untraced and traced."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    path = os.path.join(tree, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name in workloads:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                run.main(["--workload", name, "--seed", "1", "--seconds", "0.1",
                          "--trace", str(trace)])
            if not json.loads(out.getvalue().splitlines()[-1])["correct"]:
                sys.exit(f"traffic_trace.py: workload {name} at --trace {trace} was not correct")


def traffic(tree: str, work: str) -> None:
    """The README's CLI commands, then every benchmark workload of ``tree``."""
    from feadapter.cli import SWEEP_KINDS
    configs = os.path.join(tree, "configs")
    desk = cut_config(os.path.join(configs, "desk.cfg"), os.path.join(work, "desk.cfg"),
                      {**DESK_CUT, "out.dir": os.path.join(work, "desk")})
    run_cli(["train", "--config", desk])
    run_cli(["eval", "--checkpoint", os.path.join(work, "desk", "checkpoint.bin")])
    for kind in SWEEP_KINDS:
        run_cli(["sweep", "--config", desk, "--kind", kind, "--out", os.path.join(work, kind)])
    narrow = cut_config(desk, os.path.join(work, "narrow.cfg"),
                        {"model.hidden": 16, "adapter.r": 4})
    run_cli(["gradcheck", "--config", narrow])
    vitb = os.path.join(configs, "vitb_reference.cfg")
    run_cli(["count-params", "--config", vitb])
    run_cli(["count-params", "--config", vitb, "--json"], as_module=True)
    run_workloads(tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the feadapter package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    package = os.path.join(src, "feadapter")
    sys.path.insert(0, src)
    with LineTracer(package) as tracer, tempfile.TemporaryDirectory() as work:
        import feadapter
        if os.path.dirname(os.path.abspath(feadapter.__file__)) != package:
            sys.exit(f"traffic_trace.py: imported feadapter from {feadapter.__file__}, "
                     f"not from {src}")
        traffic(os.path.dirname(src), work)
    total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        seen = tracer.lines.get(path, set())
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        missed = [line for line, (lo, hi) in sorted(statements(path).items())
                  if not any(n in seen for n in range(lo, hi + 1))]
        total += len(missed)
        print(f"{name}: {len(missed)} statements never ran")
        for line in missed:
            print(f"  {line:>4}  {source[line - 1].strip()}")
    print(f"total: {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
