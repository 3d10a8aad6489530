"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [ACCEPTANCE] pass/fail line. Together these
cover: the parameter-budget arithmetic for the reference geometry, the
identity-at-initialization guarantee, gradient correctness against
finite differences, frozen-weight conservation under training, the
conv-adapter reduction to the plain adapter, the temporal-sensitivity
demonstration on motion-only classes, ablation-sweep row sets, the
recall-metric oracle, and end-to-end determinism.
"""

import time

import numpy as np
import pytest

from feadapter import (Tensor, VideoViT, apply_adapter, count_tunable_params,
                       derive_bottleneck_width, frozen_digest, synth_dataset, train, uar_war)
from feadapter.adapter import RATE_HEAD_BIAS, AdapterWeights
from feadapter.cli import main
from feadapter.config import AdapterConfig, ModelConfig, TrainConfig
from feadapter.training import apply_freeze

from helpers import read_records, uar_war_oracle


def _criterion(name, ok, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def test_parameter_budget():
    """Reference geometry (hidden 768, depth 12, P=16, 224x224, 7
    classes) with the derived default bottleneck width lands within 10%
    of 6.6M tunable parameters at a 6..9% tunable ratio, counted in
    under a second without allocating weights."""
    started = time.perf_counter()
    r = derive_bottleneck_width(768, 12, 7)
    cfg = ModelConfig(frames=16, height=224, width=224, patch=16, hidden=768,
                      depth=12, heads=12, classes=7,
                      adapter=AdapterConfig(variant="d2_conv3d", r=r))
    counts = count_tunable_params(cfg, mode="adapter")
    elapsed = time.perf_counter() - started
    target = 6_600_000
    ok = (abs(counts.trainable - target) <= 0.10 * target
          and 0.06 <= counts.ratio <= 0.09
          and elapsed < 1.0)
    _criterion("parameter-budget", ok,
               f"r={r}, tunable={counts.trainable:,}, ratio={counts.ratio:.4f}, "
               f"{elapsed * 1e3:.0f}ms")


def test_identity_at_initialization():
    """Freshly initialized adapters of every variant at every placement
    change no output bit in 64-bit evaluation on 10 random clips."""
    rng = np.random.default_rng(41)
    clips = rng.normal(size=(10, 4, 3, 16, 16)).astype(np.float64)

    def build(adapter):
        cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=32,
                          depth=2, heads=4, classes=3, adapter=adapter)
        return VideoViT(cfg, seed=13, dtype=np.float64)

    baseline = build(AdapterConfig(variant="none")).forward(clips).data
    ok = True
    for variant in ("vanilla", "dw_conv3d", "d2_conv3d"):
        for position in ("before_mhsa", "after_mhsa", "after_mlp"):
            out = build(AdapterConfig(variant=variant, r=8, position=position)).forward(clips).data
            if not np.array_equal(out, baseline):
                ok = False
    _criterion("identity-at-initialization", ok,
               "3 variants x 3 placements, 10 clips, bitwise at float64")


@pytest.mark.slow
def test_gradient_correctness(tmp_path):
    """gradcheck passes at relative tolerance 1e-4 on the small
    verification geometry over adapter, rate-head, and classifier
    parameters."""
    cfg_path = tmp_path / "gradcheck.cfg"
    cfg_path.write_text(
        "model.frames = 4\nmodel.height = 16\nmodel.width = 16\nmodel.patch = 8\n"
        "model.hidden = 64\nmodel.depth = 2\nmodel.heads = 4\nmodel.classes = 3\n"
        "adapter.variant = d2_conv3d\nadapter.r = 6\n"
        "train.seed = 5\ntrain.freeze = adapter\ndata.clips_per_class = 1\n")
    started = time.perf_counter()
    code = main(["gradcheck", "--config", str(cfg_path), "--tolerance", "1e-4"])
    elapsed = time.perf_counter() - started
    ok = code == 0 and elapsed < 300.0
    _criterion("gradient-correctness", ok, f"exit={code}, {elapsed:.1f}s (budget 300s)")


def test_frozen_weight_conservation():
    """50 adapter-mode training steps leave the SHA-256 of all frozen
    backbone bytes unchanged."""
    cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                      heads=4, classes=2,
                      adapter=AdapterConfig(variant="d2_conv3d", r=6))
    model = VideoViT(cfg, seed=21)
    data = synth_dataset(21, 2, 8, 4, 16, 16)  # 16 clips
    apply_freeze(model, "adapter")
    before = frozen_digest(model)
    started = time.perf_counter()
    # batch 8 over 16 clips = 2 steps/epoch; 25 epochs = 50 steps
    tc = TrainConfig(lr=1e-3, batch=8, epochs=25, seed=21, eval_every=25, freeze="adapter")
    result = train(model, data, tc)
    elapsed = time.perf_counter() - started
    steps = sum(-(-len(data) // tc.batch) for _ in result.records)
    after = frozen_digest(model)
    ok = before == after and steps == 50 and elapsed < 120.0
    _criterion("frozen-weight-conservation", ok,
               f"{steps} steps, digest {'un' if ok else ''}changed, {elapsed:.1f}s")


def test_conv_reduction_to_plain_adapter():
    """A conv adapter with the center-one kernel and dilation pinned at
    1 reproduces the plain bottleneck adapter within 1e-6 on 100 random
    inputs, for both conv variants."""
    rng = np.random.default_rng(33)
    hidden, r, frames, gh, gw = 16, 4, 2, 2, 2
    worst = 0.0
    for trial in range(100):
        kern = np.zeros((r, 3, 3, 3))
        kern[:, 1, 1, 1] = 1.0
        w = AdapterWeights(
            down_w=Tensor(rng.normal(0, 0.3, (hidden, r))),
            down_b=Tensor(rng.normal(0, 0.3, (r,))),
            up_w=Tensor(rng.normal(0, 0.3, (r, hidden))),
            up_b=Tensor(rng.normal(0, 0.3, (hidden,))),
            kernel=Tensor(kern),
            dil_w=Tensor(np.zeros((r, 3))),
            dil_b=Tensor(np.full(3, RATE_HEAD_BIAS)),
        )
        x = Tensor(rng.normal(size=(1, frames * (gh * gw + 1), hidden)))
        want = apply_adapter(x, w, AdapterConfig(variant="vanilla", r=r),
                             frames=frames, grid_hw=(gh, gw)).data
        for variant in ("dw_conv3d", "d2_conv3d"):
            got = apply_adapter(x, w, AdapterConfig(variant=variant, r=r),
                                frames=frames, grid_hw=(gh, gw)).data
            worst = max(worst, float(np.abs(got - want).max()))
    ok = worst < 1e-6
    _criterion("conv-reduction-to-plain-adapter", ok,
               f"max abs diff {worst:.2e} over 100 inputs x 2 variants")


@pytest.mark.slow
def test_temporal_sensitivity():
    """On the motion-only class pair (identical frames, opposite orbit
    order) the dynamic-conv adapter model separates the pair to >= 90%
    train WAR within 200 epochs while the frame-order-blind baseline
    stays at or below 60%."""
    started = time.perf_counter()
    frames, classes, per_class = 8, 4, 40
    data = synth_dataset(7, classes, per_class, frames, 32, 32)

    def pair_war(confusion):
        return float((confusion[0, 0] + confusion[1, 1]) / confusion[:2].sum())

    # frame-order-blind baseline: frozen backbone, trained head
    ta_cfg = ModelConfig(frames=frames, height=32, width=32, patch=8, hidden=64,
                         depth=4, heads=4, classes=classes)
    ta_model = VideoViT(ta_cfg, seed=7)
    ta_history = []

    def ta_eval(epoch, metrics):
        ta_history.append(pair_war(metrics.confusion))
        return False

    ta_tc = TrainConfig(lr=5e-4, weight_decay=1e-2, batch=8, epochs=200, seed=7,
                        eval_every=4, freeze="linear_probe")
    train(ta_model, data, ta_tc, on_eval=ta_eval)
    ta_peak = max(ta_history)

    d2_cfg = ModelConfig(frames=frames, height=32, width=32, patch=8, hidden=64,
                         depth=4, heads=4, classes=classes,
                         adapter=AdapterConfig(variant="d2_conv3d", r=16))
    d2_model = VideoViT(d2_cfg, seed=7)
    d2_best = {"war": 0.0, "epoch": None}

    def d2_eval(epoch, metrics):
        pw = pair_war(metrics.confusion)
        if pw > d2_best["war"]:
            d2_best.update(war=pw, epoch=epoch)
        return pw >= 0.90

    d2_tc = TrainConfig(lr=5e-4, weight_decay=1e-2, batch=8, epochs=200, seed=7,
                        eval_every=4, freeze="adapter")
    train(d2_model, data, d2_tc, on_eval=d2_eval)
    elapsed = time.perf_counter() - started
    ok = d2_best["war"] >= 0.90 and ta_peak <= 0.60 and elapsed < 1800.0
    _criterion("temporal-sensitivity", ok,
               f"d2 pair WAR {d2_best['war']:.2f} at epoch {d2_best['epoch']}, "
               f"baseline peak {ta_peak:.2f}, {elapsed:.0f}s (budget 1800s)")


SWEEP_CFG = """
model.frames = 4
model.height = 16
model.width = 16
model.patch = 8
model.hidden = 32
model.depth = 3
model.heads = 4
model.classes = 2
adapter.variant = d2_conv3d
adapter.r = 6
train.lr = 1e-3
train.epochs = 1
train.batch = 4
train.seed = 2
train.freeze = adapter
data.clips_per_class = 2
"""


def test_ablation_harness_row_sets(tmp_path):
    """The three sweep families emit exactly 3, 5, and 3 rows; all
    cells share the frozen backbone hash. Numeric orderings are not
    asserted."""
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG + f"out.dir = {tmp_path / 'sweeps'}\n")
    expected = {"temporal_conv": 3, "global_position": 5, "local_position": 3}
    ok = True
    detail = []
    for kind, rows in expected.items():
        code = main(["sweep", "--config", str(cfg_path), "--kind", kind])
        recs = read_records(str(tmp_path / "sweeps" / f"sweep_{kind}.jsonl"))
        hashes = {r["backbone_sha256"] for r in recs}
        ok = ok and code == 0 and len(recs) == rows and len(hashes) == 1
        detail.append(f"{kind}:{len(recs)}")
    _criterion("ablation-harness-shape", ok, ", ".join(detail))


def test_metric_oracle():
    """uar_war agrees exactly with a brute-force confusion-matrix
    oracle on 1000 random prediction/truth pairs."""
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        classes = int(rng.integers(2, 8))
        n = int(rng.integers(1, 40))
        truth = rng.integers(0, classes, size=n)
        # bias the generator so some classes are absent now and then
        preds = rng.integers(0, classes, size=n)
        rep = uar_war(preds, truth, classes)
        uar, war = uar_war_oracle(list(preds), list(truth), classes)
        if not (rep.uar == pytest.approx(uar, abs=1e-12)
                and rep.war == pytest.approx(war, abs=1e-12)):
            ok = False
            break
    _criterion("metric-oracle", ok, "1000 random prediction/truth pairs, exact")


DETERMINISM_CFG = """
model.frames = 4
model.height = 16
model.width = 16
model.patch = 8
model.hidden = 32
model.depth = 2
model.heads = 4
model.classes = 2
adapter.variant = d2_conv3d
adapter.r = 6
train.lr = 1e-3
train.epochs = 3
train.batch = 4
train.seed = 17
train.eval_every = 1
train.freeze = adapter
data.clips_per_class = 2
"""


def test_determinism_replay(tmp_path):
    """Two cmd_train runs with identical seed and config produce
    bitwise-identical checkpoints and metrics logs."""
    cfg_path = tmp_path / "det.cfg"
    run_dir = tmp_path / "run"
    cfg_path.write_text(DETERMINISM_CFG + f"out.dir = {run_dir}\n")

    def run_once():
        assert main(["train", "--config", str(cfg_path)]) == 0
        return ((run_dir / "checkpoint.bin").read_bytes(),
                (run_dir / "metrics.jsonl").read_bytes(),
                (run_dir / "params.json").read_bytes())

    first = run_once()
    second = run_once()
    ok = first == second
    _criterion("determinism", ok,
               f"checkpoint {len(first[0])} bytes, log {len(first[1])} bytes, bit-identical")
