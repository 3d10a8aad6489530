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


def test_traced_step_passes_completeness_check(monkeypatch):
    """Fast half of the traced smoke run: one tracked forward and
    backward of a tiny d2_conv3d model under the tracer. Its
    completeness check (graph nodes against wrapped op results plus
    leaves) runs after the forward and before the backward, and the
    traced gradients equal the untraced ones bit for bit."""
    import feadapter
    from feadapter import VideoViT, apply_freeze, synth_dataset
    from feadapter import tensor as T
    from feadapter.config import AdapterConfig, ModelConfig
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracer

    cfg = ModelConfig(frames=2, height=8, width=8, patch=4, hidden=8, depth=2, heads=2,
                      classes=2, adapter=AdapterConfig(variant="d2_conv3d", r=2))
    model = VideoViT(cfg, seed=3)
    apply_freeze(model, "adapter")
    data = synth_dataset(3, 2, 2, 2, 8, 8)

    def step():
        model.zero_grad()
        T.cross_entropy(model.forward(data.clips), data.labels).backward()
        return {n: t.grad.tobytes() for n, t in model.params.items() if t.requires_grad}

    plain = step()
    tr = tracer.Tracer(feadapter)
    try:
        tr.install()
        traced = step()
    finally:
        tr.uninstall()
    names = [s[0] for s in tr.spans]
    assert names.count("trace.check") == 2
    assert tr.nodes_since_forward > 0 and "tensor.depthwise_conv3d.bwd" in names
    assert traced == plain
