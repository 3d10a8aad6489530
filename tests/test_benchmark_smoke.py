"""The benchmark's smoke test as part of the suite: an engine change
that trips the tracer's completeness check, or renames something the
benchmark calls, fails here and not first in a benchmark run. The
name check is fast; the smoke run is slow."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_names_resolve(monkeypatch):
    """Fast half of the smoke test: importing the workloads and
    installing the tracer look up every program name the benchmark
    pins, so a deleted one fails here. Uninstalling restores them."""
    import feadapter
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracer
    import workloads  # noqa: F401
    original = feadapter.adapter.apply_adapter
    tr = tracer.Tracer(feadapter)
    try:
        tr.install()
        assert feadapter.adapter.apply_adapter is not original
    finally:
        tr.uninstall()
    assert feadapter.adapter.apply_adapter is original
