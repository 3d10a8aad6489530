"""Bottleneck adapters for image-to-video transfer.

The plain variant is residual down-project / GELU / up-project.
The conv variants insert a depthwise 3-d convolution over the
(frames, grid) token lattice inside the bottleneck: fixed dilation 1
(``dw_conv3d``) or rates predicted per clip from pooled bottleneck
features (``d2_conv3d``). Class tokens have no lattice position, so
they bypass the convolution and rejoin before the GELU.

Up-projections initialize to zero, making a fresh adapter an exact
no-op on the host network.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .config import AdapterConfig
from .errors import ShapeError
from .tensor import Tensor

# Bias of the rate head is set so softplus(bias) < 1e-6 and rates start
# at 1 (an identity-start convention; softplus keeps rates >= 1 always).
RATE_HEAD_BIAS = -16.0

@dataclass
class AdapterWeights:
    """Weight bundle for one adapter instance."""

    down_w: Tensor  # (hidden, r)
    down_b: Tensor  # (r,)
    up_w: Tensor    # (r, hidden), all-zero at initialization
    up_b: Tensor    # (hidden,)
    kernel: Tensor | None = None  # (r, kT, kH, kW), conv variants only
    dil_w: Tensor | None = None   # (r, 3), d2_conv3d only
    dil_b: Tensor | None = None   # (3,)


def tokens_to_grid(x, frames: int, grid_h: int, grid_w: int) -> tuple[Tensor, Tensor]:
    """Split a frame-major token sequence into a conv lattice plus the
    class tokens.

    ``x`` is (..., frames*(N+1), r) with the class token first within
    each frame and patch tokens in raster order. Returns the patch grid
    as (..., r, frames, grid_h, grid_w) and class tokens as
    (..., frames, r).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    n = grid_h * grid_w
    s = n + 1
    if x.data.ndim < 2 or x.shape[-2] != frames * s:
        raise ShapeError(
            f"token count {x.shape} does not match frames*(N+1) = {frames}*{s} = {frames * s}")
    lead = x.shape[:-2]
    r = x.shape[-1]
    toks = T.reshape(x, (*lead, frames, s, r))
    cls = toks[..., 0, :]                      # (..., frames, r)
    patches = toks[..., 1:, :]                 # (..., frames, n, r)
    grid = T.reshape(patches, (*lead, frames, grid_h, grid_w, r))
    nd = len(lead) + 4
    perm = (*range(nd - 4), nd - 1, nd - 4, nd - 3, nd - 2)
    return T.transpose(grid, perm), cls


def grid_to_tokens(grid, cls) -> Tensor:
    """Inverse of tokens_to_grid; a bitwise roundtrip."""
    lead = grid.shape[:-4]
    r, frames, gh, gw = grid.shape[-4:]
    nd = len(lead) + 4
    perm = (*range(nd - 4), nd - 3, nd - 2, nd - 1, nd - 4)
    patches = T.reshape(T.transpose(grid, perm), (*lead, frames, gh * gw, r))
    cls_col = T.reshape(cls, (*lead, frames, 1, r))
    toks = T.concat([cls_col, patches], axis=-2)
    return T.reshape(toks, (*lead, frames * (gh * gw + 1), r))


def dilation_rates(grid, dil_w, dil_b) -> Tensor:
    """Per-clip dilation rates from the (batch, r, frames, H, W)
    bottleneck grid: global average pool over (frames, H, W), linear map
    to 3, then 1 + softplus so the rates stay >= 1 and differentiable.
    Returns (batch, 3)."""
    if len(grid.shape) != 5:
        raise ShapeError(f"dilation rates need a (batch, r, frames, H, W) grid, got {grid.shape}")
    pooled = T.mean_axis(grid, axis=(-3, -2, -1))  # (batch, r)
    return 1.0 + T.softplus(T.matmul(pooled, dil_w, dil_b))


def apply_adapter(x, w: AdapterWeights, cfg: AdapterConfig, frames: int,
                  grid_hw: tuple[int, int]) -> Tensor:
    """Residual bottleneck, x + gelu(h) W_up + b_up with h = x W_down + b_down.
    The conv variants replace h by its depthwise 3-d conv over the patch
    grid (class tokens bypass it): at rate 1 (``dw_conv3d``) or at the
    clip's predicted rates (``d2_conv3d``)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1] != w.down_w.shape[0]:
        raise ShapeError(f"adapter width mismatch: tokens {x.shape} vs down {w.down_w.shape}")
    h = T.matmul(x, w.down_w, w.down_b)
    if cfg.variant in ("dw_conv3d", "d2_conv3d"):
        grid, cls = tokens_to_grid(h, frames, *grid_hw)
        if cfg.variant == "d2_conv3d":
            rates = dilation_rates(grid, w.dil_w, w.dil_b)
        else:
            rates = (1.0, 1.0, 1.0)
        h = grid_to_tokens(T.depthwise_conv3d(grid, w.kernel, rates), cls)
    # (x + h W_up) + b_up: the bias joins after the residual, so folding
    # it into the matmul would round differently
    return x + T.matmul(T.gelu(h), w.up_w) + w.up_b
