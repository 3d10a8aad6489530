"""Freeze plans, AdamW, the training loop, and the one owner of a run."""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import VideoViT
from .config import (ExperimentConfig, ParamCount, TrainConfig, check_freeze,
                     count_tunable_params, group_is_trainable)
from .data import VideoBatch, synth_dataset
from .errors import NonFiniteError, TrainingDiverged, UsageError
from .metrics import MetricsReport, uar_war
from .tensor import Tensor


@dataclass(frozen=True)
class FreezePlan:
    trainable: tuple[str, ...]


def apply_freeze(model: VideoViT, mode: str) -> FreezePlan:
    """Set requires_grad flags so the optimizer sees only the mode's
    trainable set: everything (full), head only (linear_probe), or
    adapters plus head (adapter)."""
    check_freeze(model.cfg, mode)
    trainable = []
    for spec in model.layout.values():
        flag = group_is_trainable(spec.group, mode)
        model.params[spec.name].requires_grad = flag
        if flag:
            trainable.append(spec.name)
    return FreezePlan(trainable=tuple(trainable))


def frozen_digest(model: VideoViT) -> str:
    """SHA-256 over the raw bytes of all frozen parameter tensors."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        t = model.params[name]
        if not t.requires_grad:
            h.update(name.encode())
            h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

# AdamW's moment decay rates and denominator floor; no caller changes them
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class AdamW:
    """AdamW over a named parameter dict, updated in sorted-name order
    so results are reproducible. The decay multiplies each parameter by
    (1 - lr*weight_decay) before the adaptive step; one step count ``t``
    serves every tensor, since every step updates them all."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.params = params
        self.order = sorted(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(params[name].data) for name in self.order}
        self.v = {name: np.zeros_like(params[name].data) for name in self.order}

    def step(self, lr: float | None = None) -> None:
        use_lr = self.lr if lr is None else lr
        self.t += 1
        decay = 1.0 - use_lr * self.weight_decay
        m_scale = 1.0 - _BETA1 ** self.t
        v_scale = 1.0 - _BETA2 ** self.t
        for name in self.order:
            p = self.params[name]
            grad = np.zeros_like(p.data) if p.grad is None else p.grad
            m, v = self.m[name], self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad * grad
            p.data = p.data * decay - use_lr * (m / m_scale) / (np.sqrt(v / v_scale) + _EPS)

    def zero_grad(self) -> None:
        for name in self.order:
            self.params[name].grad = None


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Cosine annealing from base_lr at epoch 0 to 0 at the end."""
    if not 0 <= epoch <= total_epochs:
        raise UsageError(f"epoch {epoch} outside [0, {total_epochs}]")
    return base_lr * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    report: MetricsReport  # the best eval, whose weights the model holds
    records: list          # one per epoch, as logged
    best_epoch: int
    wall_clock_s: float


def evaluate_model(model: VideoViT, data: VideoBatch, start: int | None = None) -> MetricsReport:
    """Deterministic argmax evaluation over a whole batch collection.
    With ``start`` given, ``data.clips`` holds the tokens entering block
    ``start`` instead of clips (see ``VideoViT.encode``)."""
    with T.no_grad():
        logits = model.forward(data.clips, start).data
    return uar_war(logits.argmax(axis=-1), data.labels, model.cfg.classes)


def train(model: VideoViT, data: VideoBatch, tcfg: TrainConfig,
          log_path: str | None = None, on_eval=None) -> TrainResult:
    """Cross-entropy training with per-epoch cosine annealing.

    Shuffling, and therefore the whole run, is fixed by the seed. Eval
    metrics are recorded on the training set every ``eval_every``
    epochs and at the end; the first best-WAR state is restored into the
    model before returning. ``on_eval(epoch, report)`` may return True
    to stop early. With ``log_path`` given, each epoch's record is
    written there and to stdout as one JSON line.
    """
    plan = apply_freeze(model, tcfg.freeze)
    trainables = {name: model.params[name] for name in plan.trainable}
    opt = AdamW(trainables, tcfg.lr, tcfg.weight_decay)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([tcfg.seed, 0x10AD])))
    total = len(data)
    started = time.perf_counter()

    # The embedding and the blocks before the first trainable tensor
    # give the same tokens at every step: encode them once, and start
    # every training and eval forward from that cache (after the last
    # block when only the head trains). With the embedding trainable
    # there is no frozen prefix and the forwards start from the clips.
    start = model.frozen_prefix()
    inputs = data
    if start is not None:
        try:
            with T.no_grad():
                tokens = model.encode_prefix(data.clips, start).data
        except NonFiniteError as exc:
            raise TrainingDiverged(f"non-finite value in the frozen-prefix cache: {exc}") from exc
        inputs = VideoBatch(tokens, data.labels)

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    records: list = []
    best: MetricsReport | None = None
    step_count = 0
    try:
        for epoch in range(tcfg.epochs):
            lr = cosine_lr(epoch, tcfg.epochs, tcfg.lr)
            perm = rng.permutation(total)
            loss_sum = 0.0
            for lo in range(0, total, tcfg.batch):
                idx = perm[lo:lo + tcfg.batch]
                step_count += 1
                try:
                    logits = model.forward(inputs.clips[idx], start)
                    loss = T.cross_entropy(logits, data.labels[idx])
                    loss.backward()
                except NonFiniteError as exc:
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, step {step_count}: {exc}") from exc
                opt.step(lr)
                opt.zero_grad()
                loss_sum += float(loss.data) * len(idx)
            epoch_loss = loss_sum / total
            record = {"epoch": epoch, "lr": lr, "loss": epoch_loss, "uar": None, "war": None}
            stop = False
            if (epoch + 1) % tcfg.eval_every == 0 or epoch == tcfg.epochs - 1:
                try:
                    m = evaluate_model(model, inputs, start)
                except NonFiniteError as exc:
                    raise TrainingDiverged(f"non-finite eval at epoch {epoch}: {exc}") from exc
                record["uar"], record["war"] = m.uar, m.war
                if best is None or m.war > best.war:
                    best, best_epoch = m, epoch
                    best_state = {k: v.data.copy() for k, v in trainables.items()}
                if on_eval is not None and on_eval(epoch, m):
                    stop = True
            records.append(record)
            if log_fh:
                line = json.dumps(record) + "\n"
                log_fh.write(line)
                sys.stdout.write(line)
            if stop:
                break
    finally:
        if log_fh:
            log_fh.close()
    # the last epoch and any early stop evaluate, so ``best`` is set
    for name, arr in best_state.items():
        model.params[name].data = arr
    return TrainResult(report=best, records=records, best_epoch=best_epoch,
                       wall_clock_s=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def experiment_data(exp: ExperimentConfig) -> VideoBatch:
    """The seeded clips an experiment trains and evaluates on."""
    m = exp.model
    return synth_dataset(exp.train.seed, m.classes, exp.clips_per_class,
                         m.frames, m.height, m.width, exp.noise)


@dataclass
class Run:
    model: VideoViT     # holding the best eval's weights
    result: TrainResult
    counts: ParamCount


def run_experiment(exp: ExperimentConfig, f64: bool = False, log_path: str | None = None) -> Run:
    """Build ``exp``'s model (float64 with ``f64``), train it on
    ``experiment_data(exp)`` and count its tunable parameters."""
    model = VideoViT(exp.model, seed=exp.train.seed, dtype=np.float64 if f64 else np.float32)
    result = train(model, experiment_data(exp), exp.train, log_path=log_path)
    return Run(model, result, count_tunable_params(exp.model, exp.train.freeze))
