"""The four benchmark workloads, each a closed loop with one caller.

A workload builds its state in ``setup`` (timed as ``setup_s``), gets
ready for the next operation in ``prepare`` (untimed), runs one
operation in ``op`` (timed) and checks the result in ``check``
(untimed), which returns an error message or None. Everything is drawn
from the workload seed; feadapter only ever sees the generated clips,
labels and configs.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# Program functions are looked up on the package at call time, so that
# the tracer's wrappers (installed on feadapter's modules) see the calls.
import feadapter as fa
from feadapter import tensor as T
from feadapter.cli import sweep_cells
from feadapter.gradcheck import randomize_trainable

DESK_CONFIG = os.path.join("configs", "desk.cfg")

# Geometry for the smoke test: every workload at a size that runs in a
# fraction of a second (depth 3 is the least the position sweep allows).
TINY = {"model.frames": 4, "model.height": 16, "model.width": 16, "model.patch": 8,
        "model.hidden": 16, "model.depth": 3, "model.heads": 4, "adapter.r": 2,
        "data.clips_per_class": 4}


def load_experiment(root: str, seed: int, overrides: dict):
    """The desk config with ``overrides`` applied and the workload seed
    as the only source of randomness."""
    exp = fa.load_experiment_config(os.path.join(root, DESK_CONFIG))
    values = fa.config.config_echo(exp)
    values.update(overrides)
    values["train.seed"] = seed
    return fa.config.experiment_from_values(values)


def dataset_for(exp):
    m = exp.model
    return fa.synth_dataset(exp.train.seed, m.classes, exp.clips_per_class,
                            m.frames, m.height, m.width, exp.noise)


class Workload:
    name = ""
    #: what one operation feeds through the model, for clips_per_s
    clips_per_op = 0
    #: the workload-specific names of the end-to-end metrics, printed
    #: next to the generic names the result line carries
    aliases: dict[str, str] = {}

    def __init__(self, root: str, seed: int, workdir: str, tiny: bool):
        self.root, self.seed, self.workdir, self.tiny = root, seed, workdir, tiny
        self.facts: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def check(self, result) -> str | None:
        raise NotImplementedError


class TrainStep(Workload):
    """Forward, cross-entropy, backward and AdamW step on seeded batches
    of 8 clips, with d2_conv3d adapters in every block.

    The steps run in repeats of ``STEPS`` batches, each starting from the
    same weights and a fresh optimizer, so every repeat must produce the
    first repeat's loss sequence bit for bit.
    """

    name = "train_step_d2"
    STEPS = 16
    aliases = {"op_ms_p50": "train_step_ms_p50", "op_ms_p90": "train_step_ms_p90",
               "clips_per_s": "train_clips_per_s", "peak_mib": "train_peak_mib"}

    def setup(self):
        self.exp = load_experiment(self.root, self.seed, TINY if self.tiny else {})
        self.data = dataset_for(self.exp)
        self.model = fa.VideoViT(self.exp.model, seed=self.seed)
        plan = fa.apply_freeze(self.model, "adapter")
        self.trainables = {n: self.model.params[n] for n in plan.trainable}
        self.opt = fa.AdamW(self.trainables, self.exp.train.lr, self.exp.train.weight_decay)
        self.clips_per_op = self.exp.train.batch
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 0xBA7C])))
        self.batches = [rng.choice(len(self.data), self.exp.train.batch, replace=False)
                        for _ in range(self.STEPS)]
        self.start = {n: t.data.copy() for n, t in self.trainables.items()}
        self.reference: dict[int, bytes] = {}
        self.losses: dict[int, bytes] = {}
        self.step = 0

    def prepare(self):
        if self.step % self.STEPS:
            return
        if len(self.losses) == self.STEPS and not self.reference:
            self.reference = self.losses
            digest = hashlib.sha256(b"".join(self.losses[k] for k in range(self.STEPS)))
            self.facts["loss_digest"] = digest.hexdigest()[:16]
        for n, arr in self.start.items():
            self.trainables[n].data = arr.copy()
        self.opt = fa.AdamW(self.trainables, self.exp.train.lr, self.exp.train.weight_decay)
        self.losses = {}

    def op(self):
        idx = self.batches[self.step % self.STEPS]
        self.step += 1
        clips, labels = self.data.clips[idx], self.data.labels[idx]
        loss = T.cross_entropy(self.model.forward(clips), labels)
        loss.backward()
        self.opt.step()
        self.opt.zero_grad()
        return loss.data

    def check(self, loss):
        k = (self.step - 1) % self.STEPS
        self.losses[k] = np.float32(loss).tobytes()
        if not np.isfinite(loss):
            return f"step {k}: non-finite loss {loss}"
        if self.reference and self.losses[k] != self.reference[k]:
            return f"step {k}: loss {float(loss)!r} differs from the first repeat's"
        return None


class EvalCheckpoint(Workload):
    """load_checkpoint then evaluate_model over the whole set, in chunks
    of 32: the ``feadapter eval`` path, forward only."""

    name = "eval_ckpt"
    EVAL_CHUNK = 32
    aliases = {"op_ms_p50": "eval_pass_ms_p50", "clips_per_s": "eval_clips_per_s",
               "peak_mib": "eval_peak_mib"}

    def setup(self):
        self.exp = load_experiment(self.root, self.seed, TINY if self.tiny else {})
        self.data = dataset_for(self.exp)
        self.model = fa.VideoViT(self.exp.model, seed=self.seed)
        fa.apply_freeze(self.model, "adapter")
        randomize_trainable(self.model, self.seed)
        self.path = os.path.join(self.workdir, "eval.ckpt")
        fa.save_checkpoint(self.model, self.path, echo=fa.config.config_echo(self.exp))
        self.clips_per_op = len(self.data)
        self.reference = None

    def op(self):
        model = fa.load_checkpoint(self.path)
        return model, fa.evaluate_model(model, self.data)

    def predictions(self, model):
        clips = self.data.clips
        return np.concatenate([model.forward(clips[lo:lo + self.EVAL_CHUNK]).data.argmax(axis=-1)
                               for lo in range(0, len(clips), self.EVAL_CHUNK)])

    def check(self, result):
        if self.reference is None:
            # the in-memory model's outputs, computed once, untimed
            self.reference = (self.predictions(self.model),
                              fa.evaluate_model(self.model, self.data).confusion)
        model, report = result
        for name, t in self.model.params.items():
            got = model.params[name]
            if got.data.tobytes() != t.data.tobytes() or got.requires_grad != t.requires_grad:
                return f"tensor {name} changed in the checkpoint round trip"
        preds, confusion = self.reference
        if not np.array_equal(self.predictions(model), preds):
            return "predictions after the round trip differ from the in-memory model's"
        if not np.array_equal(report.confusion, confusion):
            return "confusion matrix after the round trip differs from the in-memory model's"
        return None


class SweepCellLate(Workload):
    """One full train() of the global_position late-third cell (adapters
    in the last third of the blocks only), then save_checkpoint."""

    name = "sweep_cell_late"
    EPOCHS, EVAL_EVERY, CLIPS_PER_CLASS = 4, 2, 10
    aliases = {"op_ms_p50": "cell_ms_p50"}

    def setup(self):
        base = load_experiment(self.root, self.seed, TINY if self.tiny else {})
        label, overrides = sweep_cells("global_position", base)[2]
        values = fa.config.config_echo(base)
        values.update(overrides)
        values.update({"train.epochs": self.EPOCHS, "train.eval_every": self.EVAL_EVERY,
                       "data.clips_per_class": self.CLIPS_PER_CLASS})
        self.exp = fa.config.experiment_from_values(values)
        self.facts["cell"] = label
        self.data = dataset_for(self.exp)
        self.path = os.path.join(self.workdir, "cell.ckpt")
        evals = -(-self.EPOCHS // self.EVAL_EVERY)
        self.clips_per_op = len(self.data) * (self.EPOCHS + evals)

    def prepare(self):
        self.model = fa.VideoViT(self.exp.model, seed=self.seed)
        fa.apply_freeze(self.model, "adapter")
        self.before = fa.frozen_digest(self.model)

    def op(self):
        result = fa.train(self.model, self.data, self.exp.train)
        fa.save_checkpoint(self.model, self.path, echo=fa.config.config_echo(self.exp))
        return result

    def check(self, result):
        if fa.frozen_digest(self.model) != self.before:
            return "train() changed frozen weights"
        if not all(np.isfinite(r["loss"]) for r in result.records):
            return "non-finite epoch loss"
        return None


class GradcheckTiny(Workload):
    """gradcheck_model in float64 on 2 clips, at the acceptance gate's
    verification geometry narrowed to hidden 16, depth 1 and r 2 so that
    a run holds dozens of checks: hundreds of batch-2 forwards each,
    where per-op overhead outweighs BLAS."""

    name = "gradcheck_tiny"
    TOLERANCE = 1e-4
    GEOMETRY = {"model.frames": 4, "model.height": 16, "model.width": 16, "model.patch": 8,
                "model.hidden": 16, "model.depth": 1, "model.heads": 4, "model.classes": 3,
                "adapter.r": 2, "data.clips_per_class": 1}
    TINY_GEOMETRY = {**GEOMETRY, "model.hidden": 8, "model.depth": 1, "model.heads": 2}
    aliases = {"op_ms_p50": "gradcheck_ms_p50"}

    def setup(self):
        self.exp = load_experiment(self.root, self.seed,
                                   self.TINY_GEOMETRY if self.tiny else self.GEOMETRY)
        self.data = dataset_for(self.exp)
        self.model = fa.VideoViT(self.exp.model, seed=self.seed, dtype=np.float64)
        fa.apply_freeze(self.model, "adapter")
        randomize_trainable(self.model, self.seed)
        self.clips = np.asarray(self.data.clips[:2], dtype=np.float64)
        self.labels = np.asarray(self.data.labels[:2])
        coords = sum(t.data.size for t in self.model.params.values() if t.requires_grad)
        self.clips_per_op = 2 * (2 * coords + 1)

    def op(self):
        return fa.gradcheck_model(self.model, self.clips, self.labels)

    def check(self, errors):
        bad = {g: e for g, e in errors.items() if not e <= self.TOLERANCE}
        if not errors or bad:
            return f"relative error above {self.TOLERANCE:g}: {bad}"
        return None


WORKLOADS = {cls.name: cls for cls in (TrainStep, EvalCheckpoint, SweepCellLate, GradcheckTiny)}
