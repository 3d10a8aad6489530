"""Synthetic video-emotion stand-in data.

Classes come in pairs that share a spatial appearance (a colored
Gaussian blob orbiting the frame center) and differ only in orbit
direction. The orbit step is one full revolution per clip, so a
clockwise clip and its paired counter-clockwise clip visit the same
frame set in a different order: frame-order-blind models cannot
separate the pair, temporal models can. An unpaired trailing class
gets its own appearance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PALETTE = (
    (1.0, 0.25, 0.1),
    (0.1, 0.25, 1.0),
    (0.2, 1.0, 0.2),
    (1.0, 0.9, 0.15),
    (0.9, 0.15, 0.9),
    (0.15, 0.95, 0.95),
)


@dataclass
class VideoBatch:
    """Clips shaped (count, frames, 3, H, W) with integer labels."""

    clips: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def _render_orbit(phase: float, direction: int, color, frames: int,
                  height: int, width: int) -> np.ndarray:
    radius = 0.28 * min(height, width)
    sigma = 0.08 * min(height, width)
    cy0, cx0 = height / 2.0, width / 2.0
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    clip = np.zeros((frames, 3, height, width), dtype=np.float64)
    step = 2.0 * math.pi / frames
    for t in range(frames):
        theta = phase + direction * step * t
        cx = cx0 + radius * math.cos(theta)
        cy = cy0 + radius * math.sin(theta)
        blob = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
        for ch in range(3):
            clip[t, ch] = color[ch] * blob
    return clip


def synth_dataset(seed: int, classes: int, clips_per_class: int, frames: int,
                  height: int, width: int, noise: float = 0.02) -> VideoBatch:
    """Deterministic synthetic clips, class-major order.

    Within a motion pair the two classes reuse the same rendered clips
    (noise included) with frames re-ordered, so they differ only in
    motion; appearances differ across pairs.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5EED])))
    total = classes * clips_per_class
    clips = np.zeros((total, frames, 3, height, width), dtype=np.float32)
    labels = np.repeat(np.arange(classes, dtype=np.int64), clips_per_class)
    # frame t of the reversed orbit equals frame (frames - t) % frames of
    # the forward orbit when the step is one revolution per clip
    reverse = np.array([(frames - t) % frames for t in range(frames)])
    for base in range(0, classes, 2):
        color = _PALETTE[(base // 2) % len(_PALETTE)]
        paired = base + 1 < classes
        for j in range(clips_per_class):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            cw = _render_orbit(phase, +1, color, frames, height, width)
            if noise > 0:
                cw = cw + rng.normal(0.0, noise, size=cw.shape)
            cw32 = cw.astype(np.float32)
            clips[base * clips_per_class + j] = cw32
            if paired:
                clips[(base + 1) * clips_per_class + j] = cw32[reverse]
    return VideoBatch(clips=clips, labels=labels)
