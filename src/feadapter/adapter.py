"""Bottleneck adapters for image-to-video transfer.

The plain variant is residual down-project / activation / up-project.
The conv variants insert a depthwise 3-d convolution over the
(frames, grid) token lattice inside the bottleneck: fixed dilation 1
(``dw_conv3d``) or rates predicted per clip from pooled bottleneck
features (``d2_conv3d``). Class tokens have no lattice position, so
they bypass the convolution and rejoin before the activation.

Up-projections initialize to zero, making a fresh adapter an exact
no-op on the host network.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .config import AdapterConfig, ModelConfig, group_is_trainable, parameter_layout
from .errors import ShapeError, UsageError
from .tensor import Tensor

# Bias of the rate head is set so softplus(bias) < 1e-6 and rates start
# at 1 (an identity-start convention; softplus keeps rates >= 1 always).
RATE_HEAD_BIAS = -16.0

ACTIVATIONS = {
    "gelu": T.gelu,
    "relu": T.relu,
    "identity": lambda t: t,
}


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


def vanilla_adapter(x, w: AdapterWeights, activation: str = "gelu") -> Tensor:
    """Residual bottleneck: x + f(x W_down + b) W_up + b."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1] != w.down_w.shape[0]:
        raise ShapeError(f"adapter width mismatch: tokens {x.shape} vs down {w.down_w.shape}")
    f = ACTIVATIONS[activation]
    return x + T.matmul(f(T.matmul(x, w.down_w) + w.down_b), w.up_w) + w.up_b


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
    return 1.0 + T.softplus(T.matmul(pooled, dil_w) + dil_b)


def fe_adapter(x, w: AdapterWeights, cfg: AdapterConfig, frames: int,
               grid_hw: tuple[int, int]) -> Tensor:
    """Conv-carrying adapter: down-project, run patch tokens through the
    depthwise 3-d conv (class tokens bypass), activation, up-project,
    residual add."""
    if cfg.variant not in ("dw_conv3d", "d2_conv3d"):
        raise UsageError(f"fe_adapter needs a conv variant, got {cfg.variant!r}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1] != w.down_w.shape[0]:
        raise ShapeError(f"adapter width mismatch: tokens {x.shape} vs down {w.down_w.shape}")
    f = ACTIVATIONS[cfg.activation]
    h = T.matmul(x, w.down_w) + w.down_b
    grid, cls = tokens_to_grid(h, frames, *grid_hw)
    if cfg.variant == "d2_conv3d":
        rates = dilation_rates(grid, w.dil_w, w.dil_b)
    else:
        rates = (1.0, 1.0, 1.0)
    conv = T.depthwise_conv3d(grid, w.kernel, rates)
    merged = grid_to_tokens(conv, cls)
    return x + T.matmul(f(merged), w.up_w) + w.up_b


def apply_adapter(x, w: AdapterWeights, cfg: AdapterConfig, frames: int,
                  grid_hw: tuple[int, int]) -> Tensor:
    """Dispatch on the configured variant."""
    if cfg.variant == "vanilla":
        return vanilla_adapter(x, w, cfg.activation)
    return fe_adapter(x, w, cfg, frames, grid_hw)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamCount:
    trainable: int
    total: int
    ratio: float
    groups: dict[str, dict]  # group -> {"params": int, "trainable": bool}


def count_tunable_params(model_or_cfg, mode: str | None = None) -> ParamCount:
    """Exact parameter counts under a freeze mode.

    Accepts a built model (enumerates its tensors and flags) or a
    ModelConfig (counts from the layout alone, no allocation). With a
    model and ``mode=None`` the tensors' current flags are used.
    """
    groups: dict[str, dict] = {}

    def bump(group: str, size: int, trainable: bool):
        g = groups.setdefault(group, {"params": 0, "trainable": trainable})
        g["params"] += size
        g["trainable"] = trainable

    if isinstance(model_or_cfg, ModelConfig):
        if mode is None:
            raise UsageError("counting from a config requires a freeze mode")
        for spec in parameter_layout(model_or_cfg):
            bump(spec.group, spec.size, group_is_trainable(spec.group, mode))
    else:
        model = model_or_cfg
        layout = {spec.name: spec for spec in parameter_layout(model.cfg)}
        for name, tens in model.params.items():
            spec = layout[name]
            trainable = tens.requires_grad if mode is None else group_is_trainable(spec.group, mode)
            bump(spec.group, int(tens.data.size), trainable)

    total = sum(g["params"] for g in groups.values())
    trainable = sum(g["params"] for g in groups.values() if g["trainable"])
    return ParamCount(trainable=trainable, total=total,
                      ratio=trainable / total if total else 0.0, groups=groups)


def adapter_params_per_block(hidden: int, r: int, kernel=(3, 3, 3),
                             variant: str = "d2_conv3d") -> int:
    """Closed-form adapter parameter count for one block."""
    n = hidden * r + r + r * hidden + hidden  # projections with biases
    if variant in ("dw_conv3d", "d2_conv3d"):
        n += r * kernel[0] * kernel[1] * kernel[2]
    if variant == "d2_conv3d":
        n += r * 3 + 3
    return n


def derive_bottleneck_width(hidden: int, depth: int, classes: int,
                            kernel=(3, 3, 3), variant: str = "d2_conv3d",
                            target: int = 6_600_000) -> int:
    """Invert the closed-form tunable count (adapters in every block
    plus the classifier head) for the bottleneck width closest to the
    parameter budget target. For the reference geometry (hidden 768,
    depth 12, 7 classes) this lands on r = 350."""
    head = hidden * classes + classes

    def tunable(r):
        return depth * adapter_params_per_block(hidden, r, kernel, variant) + head

    best, best_err = 1, abs(tunable(1) - target)
    for r in range(2, hidden):
        err = abs(tunable(r) - target)
        if err < best_err:
            best, best_err = r, err
    return best
