#!/usr/bin/env python3
"""One SHA-256 over the program's outputs, to show that a refactor left
them bitwise unchanged.

    python3 tests/output_digest.py [--src DIR] [--seed N]

``DIR`` is a ``src/`` directory holding the ``feadapter`` package (by
default this checkout's); run the script once on each tree and compare
the last lines. At the tiny geometry of ``configs/desk.cfg`` narrowed
down, it hashes:

- 16 AdamW training steps (each loss and, at the end, every weight);
- one ``train()`` each (its records and weights) of the late-third
  position cell, the ``after_mhsa`` and ``after_mlp`` local-position
  cells and the ``linear_probe`` cell, so every point at which the last
  block drops its patch rows is trained through;
- a save, ``load_checkpoint`` and ``evaluate_model`` (the logits and
  the confusion matrix);
- the float64 ``gradcheck_model`` errors, as ``float.hex``;
- the ``cli`` part: ``feadapter train``, ``eval`` and ``sweep --kind
  temporal_conv`` through ``cli.main``, cut to 2 epochs, in a temporary
  directory: what they print (the ``done:`` line without its wall
  time), ``metrics.jsonl``, ``params.json``, the sweep rows and the
  checkpoint's tensors as ``load_experiment`` reads them back (the raw
  file holds the temporary ``out.dir``).

It also runs two training steps and one 32-clip forward at desk size,
so that arrays above the engine's slice-checking threshold are hashed.
Two steps, because the classifier head starts at zero, so the first
step's adapter gradients are all exactly 0. At desk size it hashes,
too, the raw ``.grad`` of every tensor after one forward and backward
of a model with randomized trainables, before AdamW reads them, so a
change to the backward is checked on the gradients themselves (the
script fails if every block-0 adapter gradient is zero), and the
forward-only passes under ``no_grad`` (``VideoViT.forward`` and
``encode_prefix``, which run their per-clip part in chunks) over desk
traffic: the logits over the 160 desk clips, and the late-third cell's
40 clips as ``train()`` sees them, prefix tokens and logits.
The parts print one per line, then the whole digest. BLAS results may
differ in their last bits from one CPU to another, so compare digests
from one machine only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_CONFIG = os.path.join(ROOT, "configs", "desk.cfg")
TINY = {"model.frames": 4, "model.height": 16, "model.width": 16, "model.patch": 8,
        "model.hidden": 16, "model.depth": 3, "model.heads": 4, "adapter.r": 2,
        "data.clips_per_class": 4}
STEPS = 16


def _experiment(seed: int, overrides: dict):
    from feadapter.config import config_echo, experiment_from_values, load_experiment_config
    values = config_echo(load_experiment_config(DESK_CONFIG))
    values.update(overrides)
    values["train.seed"] = seed
    return experiment_from_values(values)


def _dataset(exp):
    from feadapter import synth_dataset
    m = exp.model
    return synth_dataset(exp.train.seed, m.classes, exp.clips_per_class,
                         m.frames, m.height, m.width, exp.noise)


def _weights(h, model) -> None:
    for name in sorted(model.params):
        t = model.params[name]
        h.update(name.encode())
        h.update(bytes([t.requires_grad]))
        h.update(np.ascontiguousarray(t.data).tobytes())


def _batch_rng(exp):
    """The seeded stream that draws the training batches."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([exp.train.seed, 0xD16])))


def _train_steps(h, exp, steps: int) -> None:
    """``steps`` forward/backward/AdamW steps on seeded batches."""
    import feadapter as fa
    from feadapter import tensor as T
    data = _dataset(exp)
    model = fa.VideoViT(exp.model, seed=exp.train.seed)
    plan = fa.apply_freeze(model, "adapter")
    opt = fa.AdamW({n: model.params[n] for n in plan.trainable},
                   exp.train.lr, exp.train.weight_decay)
    rng = _batch_rng(exp)
    for _ in range(steps):
        idx = rng.choice(len(data), exp.train.batch, replace=False)
        loss = T.cross_entropy(model.forward(data.clips[idx]), data.labels[idx])
        loss.backward()
        opt.step()
        opt.zero_grad()
        h.update(np.asarray(loss.data).tobytes())
    _weights(h, model)


def _desk_grads(h, exp) -> None:
    """Every ``.grad`` of ``_randomized(exp)`` after the forward and
    backward of ``_train_steps``'s first batch, by sorted name."""
    from feadapter import tensor as T
    data = _dataset(exp)
    model = _randomized(exp)
    idx = _batch_rng(exp).choice(len(data), exp.train.batch, replace=False)
    T.cross_entropy(model.forward(data.clips[idx]), data.labels[idx]).backward()
    if not any(t.grad is not None and t.grad.any() for name, t in model.params.items()
               if name.startswith("blocks.0.adapter.")):
        sys.exit("output_digest.py: every block-0 adapter gradient is zero, "
                 "so desk_grads would check no adapter backward")
    for name in sorted(model.params):
        grad = model.params[name].grad
        if grad is not None:
            h.update(name.encode())
            h.update(np.ascontiguousarray(grad).tobytes())


def _cell(exp, kind: str, label: str):
    """The ``kind`` sweep's ``label`` cell of ``exp``, 10 clips a class."""
    from feadapter.cli import sweep_cells
    from feadapter.config import config_echo, experiment_from_values
    values = config_echo(exp)
    values.update(dict(sweep_cells(kind, exp))[label])
    values.update({"train.epochs": 4, "train.eval_every": 2, "data.clips_per_class": 10})
    return experiment_from_values(values)


def _late_cell(exp):
    """The global_position late-third cell of ``exp``."""
    from feadapter.cli import sweep_cells
    return _cell(exp, "global_position", sweep_cells("global_position", exp)[2][0])


def _train_cell(h, cell) -> None:
    """A whole ``train()`` of ``cell``."""
    import feadapter as fa
    model = fa.VideoViT(cell.model, seed=cell.train.seed)
    result = fa.train(model, _dataset(cell), cell.train)
    h.update(repr((result.records, result.best_epoch)).encode())
    _weights(h, model)


def _randomized(exp, dtype=np.float32):
    """``exp``'s model in adapter mode, its trainables randomized."""
    import feadapter as fa
    from feadapter.gradcheck import randomize_trainable
    model = fa.VideoViT(exp.model, seed=exp.train.seed, dtype=dtype)
    fa.apply_freeze(model, "adapter")
    randomize_trainable(model, exp.train.seed)
    return model


def _eval_checkpoint(h, exp, clips: int | None = None) -> None:
    """Save a model with randomized trainables, load it back, hash the
    loaded model's logits (over the first ``clips`` clips) and, for the
    whole set, its confusion matrix."""
    import feadapter as fa
    from feadapter import tensor as T
    from feadapter.config import config_echo
    data = _dataset(exp)
    model = _randomized(exp)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ck.bin")
        fa.save_checkpoint(model, path, echo=config_echo(exp))
        loaded = fa.load_checkpoint(path)
    _weights(h, loaded)
    with T.no_grad():
        h.update(loaded.forward(data.clips[:clips]).data.tobytes())
    if clips is None:
        h.update(fa.evaluate_model(loaded, data).confusion.tobytes())


def _forward_only_passes(h, exp) -> None:
    """Forward-only passes under ``no_grad`` with randomized trainables:
    the logits over all of ``exp``'s clips, then the late-third cell's
    prefix tokens and its logits from them, as ``train()`` computes them."""
    from feadapter import tensor as T
    with T.no_grad():
        h.update(_randomized(exp).forward(_dataset(exp).clips).data.tobytes())
        cell = _late_cell(exp)
        model = _randomized(cell)
        start = model.frozen_prefix()
        tokens = model.encode_prefix(_dataset(cell).clips, start).data
        h.update(tokens.tobytes())
        h.update(model.forward(tokens, start).data.tobytes())


def _gradcheck(h, exp) -> None:
    import feadapter as fa
    data = _dataset(exp)
    model = _randomized(exp, np.float64)
    errors = fa.gradcheck_model(model, data.clips[:2].astype(np.float64), data.labels[:2])
    h.update(repr(sorted((g, e.hex()) for g, e in errors.items())).encode())


def _cli_runs(h, exp) -> None:
    """``train``, ``eval`` and the temporal_conv sweep on ``exp``, 2 epochs."""
    from feadapter.checkpoint import load_experiment
    from feadapter.cli import main
    from feadapter.config import config_echo
    with tempfile.TemporaryDirectory() as d:
        values = {**config_echo(exp), "train.epochs": 2, "out.dir": d}
        config = os.path.join(d, "run.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in values.items())
        commands = [["train", "--config", config],
                    ["eval", "--checkpoint", os.path.join(d, "checkpoint.bin")],
                    ["sweep", "--kind", "temporal_conv", "--config", config]]
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, argv
            text = out.getvalue()
            if argv[0] == "train":  # drop the done: line's wall time
                text = text[:text.rindex("  wall ")]
            h.update(text.encode())
        for name in ("metrics.jsonl", "params.json", "sweep_temporal_conv.jsonl"):
            with open(os.path.join(d, name), "rb") as fh:
                h.update(fh.read())
        model, _ = load_experiment(os.path.join(d, "checkpoint.bin"))
        _weights(h, model)


def output_digest(seed: int) -> dict[str, str]:
    """Each part's SHA-256 at ``seed``, then ``all``, the digest over them."""
    tiny = _experiment(seed, TINY)
    desk = _experiment(seed, {})
    gc_geometry = {**TINY, "model.hidden": 8, "model.depth": 1, "model.heads": 2,
                   "model.classes": 3, "data.clips_per_class": 1}
    parts = {
        "train_steps": lambda h: _train_steps(h, tiny, STEPS),
        "train_cell": lambda h: _train_cell(h, _late_cell(tiny)),
        "eval_checkpoint": lambda h: _eval_checkpoint(h, tiny),
        "gradcheck": lambda h: _gradcheck(h, _experiment(seed, gc_geometry)),
        "desk_step": lambda h: _train_steps(h, desk, 2),
        "desk_grads": lambda h: _desk_grads(h, desk),
        "desk_eval_chunk": lambda h: _eval_checkpoint(h, desk, clips=32),
        "forward_only": lambda h: _forward_only_passes(h, desk),
        "after_mhsa_cell": lambda h: _train_cell(
            h, _cell(tiny, "local_position", "after_mhsa")),
        "after_mlp_cell": lambda h: _train_cell(h, _cell(tiny, "local_position", "after_mlp")),
        "linear_probe": lambda h: _train_cell(h, _cell(tiny, "temporal_conv", "linear_probe")),
        "cli": lambda h: _cli_runs(h, tiny),
    }
    out = {}
    for name, run in parts.items():
        h = hashlib.sha256()
        run(h)
        out[name] = h.hexdigest()
    out["all"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the feadapter package")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import feadapter
    if os.path.dirname(os.path.dirname(os.path.abspath(feadapter.__file__))) \
            != os.path.abspath(args.src):
        sys.exit(f"output_digest.py: imported feadapter from {feadapter.__file__}, "
                 f"not from {args.src}")
    for name, value in output_digest(args.seed).items():
        print(f"{name:<16} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
