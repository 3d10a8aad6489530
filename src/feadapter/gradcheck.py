"""Reverse-mode vs central-difference verification on a whole model,
against the engine's finite-difference oracle."""

from __future__ import annotations

from functools import partial

import numpy as np

from . import tensor as T
from .backbone import VideoViT
from .errors import UsageError

FLOOR = 1e-5  # relative-error denominator floor; coordinates this small are noise


def randomize_trainable(model: VideoViT, seed: int, scale: float = 0.05) -> None:
    """Replace trainable tensors with small random values so every
    gradient path (including zero-initialized up-projections and rate
    heads) actually carries signal during verification."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC0DE])))
    for name in sorted(model.params):
        t = model.params[name]
        if t.requires_grad:
            t.data = rng.normal(0.0, scale, size=t.shape).astype(t.data.dtype)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def gradcheck_model(model: VideoViT, clips: np.ndarray, labels: np.ndarray,
                    eps: float = 1e-5) -> dict[str, float]:
    """Max relative backward-vs-finite-difference error per parameter
    group, over every coordinate of every trainable tensor.

    The model should be built in float64; central differences are
    unreliable at 32 bit.
    """
    if model.dtype != np.float64:
        raise UsageError("gradcheck requires a float64 model")

    model.zero_grad()
    T.cross_entropy(model.forward(clips), labels).backward()

    # moving one tensor leaves the tokens entering the first block that
    # reads it unchanged, so its differences start there, from tokens
    # encoded once per block at the saved weights
    starts = {name: model.layout[name].entry
              for name, p in model.params.items() if p.requires_grad}
    with T.no_grad():
        inputs = {start: clips if start is None else model.encode_prefix(clips, start)
                  for start in set(starts.values())}

    def loss_with(p: T.Tensor, start: int | None, values: T.Tensor) -> float:
        p.data = values.data
        with T.no_grad():
            return float(T.cross_entropy(model.forward(inputs[start], start), labels).data)

    worst: dict[str, float] = {}
    for name in sorted(model.params):
        p = model.params[name]
        if not p.requires_grad:
            continue
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        saved = p.data
        try:
            numeric = T.finite_difference_gradient(
                partial(loss_with, p, starts[name]), p, eps).data
        finally:
            p.data = saved
        err = max_relative_error(analytic, numeric)
        group = model.layout[name].group
        worst[group] = max(worst.get(group, 0.0), err)
    model.zero_grad()
    return worst
