"""Recall-based classification metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass
class MetricsReport:
    """Per-class recalls, UAR/WAR and confusion counts."""

    per_class_recall: list
    uar: float
    war: float
    confusion: np.ndarray  # rows = truth, cols = prediction


def uar_war(predictions, truth, classes: int) -> MetricsReport:
    """Unweighted average recall (mean per-class recall over classes
    present in the truth) and weighted average recall (overall
    accuracy). Classes absent from the truth are excluded from the UAR
    mean and reported as None."""
    preds = np.asarray(predictions, dtype=np.int64).ravel()
    labels = np.asarray(truth, dtype=np.int64).ravel()
    if preds.size == 0 or labels.size == 0:
        raise UsageError("uar_war needs at least one prediction")
    if preds.size != labels.size:
        raise UsageError(f"length mismatch: {preds.size} predictions vs {labels.size} labels")
    for arr, what in ((preds, "prediction"), (labels, "truth")):
        if arr.min() < 0 or arr.max() >= classes:
            raise UsageError(f"{what} labels outside [0, {classes})")
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    support = confusion.sum(axis=1)
    recalls = [
        float(confusion[c, c] / support[c]) if support[c] else None
        for c in range(classes)
    ]
    present = [r for r in recalls if r is not None]
    uar = float(np.mean(present))
    war = float(np.trace(confusion) / confusion.sum())
    return MetricsReport(per_class_recall=recalls, uar=uar, war=war, confusion=confusion)
