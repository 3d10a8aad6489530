"""Command-line entry point: train, sweep, count-params, gradcheck, eval."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .backbone import VideoViT
from .checkpoint import atomic_write, load_experiment, save_checkpoint
from .config import (ExperimentConfig, config_echo, count_tunable_params,
                     experiment_from_values, load_experiment_config, with_overrides)
from .errors import (CheckpointError, ConfigError, NonFiniteError,
                     TrainingDiverged, UsageError)
from .gradcheck import gradcheck_model, randomize_trainable
from .training import apply_freeze, evaluate_model, experiment_data, frozen_digest, run_experiment

SWEEP_KINDS = ("temporal_conv", "global_position", "local_position")


def _make_out_dir(path: str) -> None:
    """Make the output directory before any work that would write to it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {path!r}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    exp = with_overrides(load_experiment_config(args.config), args.seed, args.out)
    _make_out_dir(exp.out_dir)
    run = run_experiment(exp, args.f64, os.path.join(exp.out_dir, "metrics.jsonl"))
    save_checkpoint(run.model, os.path.join(exp.out_dir, "checkpoint.bin"), echo=config_echo(exp))
    r, counts = run.result.report, run.counts
    with atomic_write(os.path.join(exp.out_dir, "params.json")) as fh:
        json.dump(dataclasses.asdict(counts), fh, indent=2, sort_keys=True)
    print(f"done: best epoch {run.result.best_epoch}  UAR {r.uar:.4f}  WAR {r.war:.4f}  "
          f"tunable {counts.trainable:,}/{counts.total:,} ({counts.ratio:.2%})  "
          f"wall {run.result.wall_clock_s:.1f}s")
    return 0


def cmd_eval(args) -> int:
    model, exp = load_experiment(args.checkpoint)
    m = evaluate_model(model, experiment_data(exp))
    print(f"UAR {m.uar:.4f}  WAR {m.war:.4f}")
    for c, r in enumerate(m.per_class_recall):
        print(f"  class {c}: recall {'n/a' if r is None else f'{r:.4f}'}")
    return 0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _range_label(blocks) -> str:
    lo, hi = blocks[0], blocks[-1]
    return str(lo) if lo == hi else f"{lo}-{hi}"


def sweep_cells(kind: str, exp: ExperimentConfig) -> list[tuple[str, dict]]:
    """Cell labels plus config-key overrides for one sweep family."""
    if kind == "temporal_conv":
        return [
            ("linear_probe", {"adapter.variant": "none", "train.freeze": "linear_probe"}),
            ("dw_conv3d", {"adapter.variant": "dw_conv3d", "train.freeze": "adapter"}),
            ("d2_conv3d", {"adapter.variant": "d2_conv3d", "train.freeze": "adapter"}),
        ]
    variant = exp.model.adapter.variant
    if variant == "none":
        variant = "d2_conv3d"
    if kind == "global_position":
        depth = exp.model.depth
        if depth < 3:
            raise ConfigError(f"global_position sweep needs depth >= 3, got {depth}")
        thirds = [list(part) for part in np.array_split(np.arange(1, depth + 1), 3)]
        subsets = [thirds[0], thirds[1], thirds[2], thirds[1] + thirds[2],
                   thirds[0] + thirds[1] + thirds[2]]
        return [
            (_range_label(blocks),
             {"adapter.variant": variant, "train.freeze": "adapter",
              "adapter.blocks": ",".join(map(str, blocks))})
            for blocks in subsets
        ]
    if kind == "local_position":
        return [
            (pos, {"adapter.variant": variant, "train.freeze": "adapter",
                   "adapter.position": pos})
            for pos in ("after_mlp", "after_mhsa", "before_mhsa")
        ]
    raise UsageError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")


def _run_sweep_cell(payload) -> dict:
    kind, label, values, f64 = payload
    run = run_experiment(experiment_from_values(values), f64)
    r = run.result.report
    return {
        "kind": kind,
        "cell": label,
        "uar": r.uar,
        "war": r.war,
        "trainable_params": run.counts.trainable,
        "total_params": run.counts.total,
        "backbone_sha256": frozen_digest(run.model),
    }


def run_sweep(kind: str, exp: ExperimentConfig, f64: bool = False,
              parallel: int = 0) -> list[dict]:
    base = config_echo(exp)
    payloads = []
    for label, overrides in sweep_cells(kind, exp):
        values = dict(base)
        values.pop("out.dir", None)
        values.update(overrides)
        payloads.append((kind, label, values, f64))
    # a fork-started pool forks all its workers at the first submit, so
    # it gets no more workers than cells
    workers = min(parallel, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_sweep_cell, payloads))
    return [_run_sweep_cell(p) for p in payloads]


def cmd_sweep(args) -> int:
    if args.parallel < 0:
        raise UsageError(f"--parallel must be at least 0, got {args.parallel}")
    exp = with_overrides(load_experiment_config(args.config), args.seed, args.out)
    _make_out_dir(exp.out_dir)
    rows = run_sweep(args.kind, exp, f64=args.f64, parallel=args.parallel)
    with atomic_write(os.path.join(exp.out_dir, f"sweep_{args.kind}.jsonl")) as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
    width = max(len(r["cell"]) for r in rows)
    print(f"{'cell':<{width}}  {'UAR':>8}  {'WAR':>8}  {'tunable':>12}")
    for r in rows:
        print(f"{r['cell']:<{width}}  {r['uar']:>8.4f}  {r['war']:>8.4f}  {r['trainable_params']:>12,}")
    return 0


# ---------------------------------------------------------------------------
# counting and verification
# ---------------------------------------------------------------------------

def cmd_count_params(args) -> int:
    exp = load_experiment_config(args.config)
    counts = count_tunable_params(exp.model, exp.train.freeze)
    if args.json:
        print(json.dumps(dataclasses.asdict(counts), sort_keys=True))
        return 0
    adapters = sum(g["params"] for name, g in counts.groups.items() if name.startswith("adapter."))
    dilation = sum(g["params"] for name, g in counts.groups.items() if name.startswith("dilation."))
    print(f"{'group':<24}{'params':>14}  trainable")
    for name, g in counts.groups.items():
        print(f"{name:<24}{g['params']:>14,}  {'yes' if g['trainable'] else 'no'}")
    print(f"{'-' * 50}")
    print(f"{'all adapters':<24}{adapters:>14,}")
    print(f"{'all dilation heads':<24}{dilation:>14,}")
    print(f"{'trainable':<24}{counts.trainable:>14,}")
    print(f"{'total':<24}{counts.total:>14,}")
    print(f"{'ratio':<24}{counts.ratio:>14.4%}")
    return 0


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise UsageError(f"--eps must be a positive finite number, got {args.eps}")
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    if not args.tolerance >= 0:  # also rejects nan, which no error would pass
        raise UsageError(f"--tolerance must be a non-negative number, got {args.tolerance}")
    exp = with_overrides(load_experiment_config(args.config), args.seed, None)
    data = experiment_data(exp)
    if args.samples > len(data.labels):
        raise UsageError(
            f"--samples {args.samples} exceeds the {len(data.labels)} clips in the dataset")
    model = VideoViT(exp.model, seed=exp.train.seed, dtype=np.float64)  # 64-bit forced
    apply_freeze(model, exp.train.freeze)
    randomize_trainable(model, exp.train.seed)
    # the dataset is class-major: take its clips round-robin over classes
    pick = np.arange(len(data)).reshape(exp.model.classes, -1).T.ravel()[:args.samples]
    clips = data.clips[pick].astype(np.float64)
    labels = data.labels[pick]
    errors = gradcheck_model(model, clips, labels, eps=args.eps)
    failing = []
    for group in sorted(errors):
        ok = errors[group] <= args.tolerance
        print(f"{group:<24} max rel err {errors[group]:.3e}  [{'ok' if ok else 'FAIL'}]")
        if not ok:
            failing.append(group)
    if failing:
        print(f"gradcheck FAILED for groups: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"gradcheck passed at tolerance {args.tolerance:g}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")


def _add_run_outputs(p):
    p.add_argument("--out", default=None, help="override out.dir")
    p.add_argument("--f64", action="store_true", help="build the model in float64 (verification precision)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feadapter",
        description="Train and inspect adapter-equipped frame-wise video classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train per the config and write artifacts")
    _add_common(p)
    _add_run_outputs(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run an ablation sweep family")
    _add_common(p)
    _add_run_outputs(p)
    p.add_argument("--kind", required=True, choices=SWEEP_KINDS)
    p.add_argument("--parallel", type=int, default=0, help="run cells in up to N worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("count-params", help="itemized parameter report")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("gradcheck", help="backward vs finite differences on a small model")
    _add_common(p)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--samples", type=int, default=2, help="clips in the check batch")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its echoed dataset")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, UsageError, TrainingDiverged, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
