"""Configuration types, the parameter inventory they imply with the
counts and the default width taken from it, and the flat key-value
experiment-config file format."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .errors import ConfigError

ADAPTER_VARIANTS = ("none", "vanilla", "dw_conv3d", "d2_conv3d")
ADAPTER_POSITIONS = ("before_mhsa", "after_mhsa", "after_mlp")
FREEZE_MODES = ("full", "linear_probe", "adapter")
# (kT, kH, kW) of every conv adapter's depthwise kernel
CONV_KERNEL = (3, 3, 3)

# Reference tunable-parameter budget (millions are reported elsewhere;
# this is the raw count) used to derive the default bottleneck width
# for large geometries. See derive_bottleneck_width below.
PARAM_BUDGET_TARGET = 6_600_000


@dataclass(frozen=True)
class AdapterConfig:
    """Bottleneck-adapter settings: variant, width, and placement."""

    variant: str = "none"
    r: int = 16
    blocks: tuple[int, ...] | None = None  # 1-based block indices; None = every block
    position: str = "before_mhsa"

    def __post_init__(self):
        if self.variant not in ADAPTER_VARIANTS:
            raise ConfigError(f"unknown adapter variant {self.variant!r}; expected one of {ADAPTER_VARIANTS}")
        if self.position not in ADAPTER_POSITIONS:
            raise ConfigError(f"unknown adapter position {self.position!r}; expected one of {ADAPTER_POSITIONS}")
        _at_least(1, r=self.r)

    def resolved_blocks(self, depth: int) -> Sequence[int]:
        """The 1-based blocks actually carrying an adapter, ascending.
        Every block (``blocks`` None) is a lazy ``range``, so a huge depth
        costs nothing here."""
        if self.variant == "none":
            return ()
        if self.blocks is None:
            return range(1, depth + 1)
        return tuple(sorted(set(self.blocks)))

    def active(self, depth: int) -> bool:
        # an empty block set behaves exactly like variant=none
        return self.variant != "none" and len(self.resolved_blocks(depth)) > 0


@dataclass(frozen=True)
class ModelConfig:
    """Backbone geometry plus adapter settings."""

    frames: int = 8
    height: int = 32
    width: int = 32
    patch: int = 8
    hidden: int = 64
    depth: int = 4
    heads: int = 4
    mlp_ratio: float = 4.0
    classes: int = 4
    adapter: AdapterConfig = field(default_factory=AdapterConfig)

    def __post_init__(self):
        _at_least(1, frames=self.frames, height=self.height, width=self.width, patch=self.patch,
                  hidden=self.hidden, depth=self.depth, heads=self.heads)
        _at_least(2, classes=self.classes)
        _positive(mlp_ratio=self.mlp_ratio)
        _at_least(1, mlp_width=self.hidden * self.mlp_ratio)
        if self.height % self.patch or self.width % self.patch:
            raise ConfigError(
                f"frame extents {self.height}x{self.width} not divisible by patch {self.patch}")
        if self.hidden % self.heads:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.adapter.variant != "none":
            if self.adapter.r >= self.hidden:
                raise ConfigError(
                    f"bottleneck width {self.adapter.r} must be below hidden width {self.hidden}")
            # every block (blocks None) lies in 1..depth by construction
            bad = sorted({b for b in self.adapter.blocks or () if not 1 <= b <= self.depth})
            if bad:
                raise ConfigError(f"adapter blocks {bad} outside 1..{self.depth}")

    @property
    def grid(self) -> tuple[int, int]:
        return self.height // self.patch, self.width // self.patch

    @property
    def num_patches(self) -> int:
        gh, gw = self.grid
        return gh * gw

    @property
    def tokens_per_frame(self) -> int:
        return self.num_patches + 1

    @property
    def mlp_width(self) -> int:
        return int(round(self.hidden * self.mlp_ratio))


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. The seed fixes every source of randomness."""

    lr: float = 5e-4
    weight_decay: float = 1e-2
    batch: int = 8
    epochs: int = 20
    seed: int = 0
    eval_every: int = 1
    freeze: str = "adapter"

    def __post_init__(self):
        _positive(lr=self.lr)
        _at_least(0, weight_decay=self.weight_decay, seed=self.seed)
        _at_least(1, batch=self.batch, epochs=self.epochs, eval_every=self.eval_every)
        if self.freeze not in FREEZE_MODES:
            raise ConfigError(f"unknown freeze mode {self.freeze!r}; expected one of {FREEZE_MODES}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    train: TrainConfig
    clips_per_class: int = 40
    noise: float = 0.02
    out_dir: str = "runs/default"

    def __post_init__(self):
        _at_least(1, clips_per_class=self.clips_per_class)
        _at_least(0, noise=self.noise)
        check_freeze(self.model, self.train.freeze)


# Numbers must be finite floats; an integer beyond the largest one is
# rejected before any arithmetic could overflow on it.
_FINITE_MAX = sys.float_info.max


def _at_least(low, **values) -> None:
    """Raise a ConfigError naming the first value that is not a finite
    number >= low (NaN included)."""
    for name, value in values.items():
        if not low <= value <= _FINITE_MAX:
            raise ConfigError(f"{name} must be >= {low} and finite, got {value}")


def _positive(**values) -> None:
    for name, value in values.items():
        if not 0 < value <= _FINITE_MAX:
            raise ConfigError(f"{name} must be positive and finite, got {value}")


# ---------------------------------------------------------------------------
# parameter inventory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple[int, ...]
    group: str  # "backbone" | "adapter.block{i}" | "dilation.block{i}" | "classifier"
    init: str   # a key of backbone.INITS: how VideoViT draws the tensor
    # the first block that reads the tensor: i for blocks.i.*, depth for
    # the final norm and the head (they read the tokens leaving the last
    # block), None for an embedding tensor (read before any block). The
    # tokens entering that block do not depend on the tensor.
    entry: int | None

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def parameter_layout(cfg: ModelConfig) -> list[ParamSpec]:
    """Every parameter tensor the model owns, in construction order.

    This is the single source of truth shared by the weight builder,
    the parameter counter, the width derivation and the freeze planner.
    """
    d = cfg.hidden
    specs: list[ParamSpec] = []

    def add(name, shape, init, entry, group="backbone"):
        specs.append(ParamSpec(name, tuple(shape), group, init, entry))

    add("patch_embed.weight", (3 * cfg.patch * cfg.patch, d), "xavier", None)
    add("patch_embed.bias", (d,), "zeros", None)
    add("pos_embed", (cfg.tokens_per_frame, d), "embed", None)
    add("cls_token", (d,), "embed", None)
    ad = cfg.adapter
    adapter_blocks = ad.resolved_blocks(cfg.depth)
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        add(pre + "ln1.gamma", (d,), "ones", i)
        add(pre + "ln1.beta", (d,), "zeros", i)
        for proj in ("q", "k", "v", "out"):
            add(pre + f"attn.{proj}.weight", (d, d), "xavier", i)
            add(pre + f"attn.{proj}.bias", (d,), "zeros", i)
        add(pre + "ln2.gamma", (d,), "ones", i)
        add(pre + "ln2.beta", (d,), "zeros", i)
        add(pre + "mlp.fc1.weight", (d, cfg.mlp_width), "xavier", i)
        add(pre + "mlp.fc1.bias", (cfg.mlp_width,), "zeros", i)
        add(pre + "mlp.fc2.weight", (cfg.mlp_width, d), "xavier", i)
        add(pre + "mlp.fc2.bias", (d,), "zeros", i)
        if (i + 1) in adapter_blocks:
            agrp = f"adapter.block{i + 1}"
            add(pre + "adapter.down.weight", (d, ad.r), "xavier", i, agrp)
            add(pre + "adapter.down.bias", (ad.r,), "zeros", i, agrp)
            # a zero up-projection makes a fresh adapter an exact no-op
            add(pre + "adapter.up.weight", (ad.r, d), "zeros", i, agrp)
            add(pre + "adapter.up.bias", (d,), "zeros", i, agrp)
            if ad.variant in ("dw_conv3d", "d2_conv3d"):
                add(pre + "adapter.conv.kernel", (ad.r, *CONV_KERNEL), "conv", i, agrp)
            if ad.variant == "d2_conv3d":
                dgrp = f"dilation.block{i + 1}"
                add(pre + "adapter.dilation.weight", (ad.r, 3), "zeros", i, dgrp)
                add(pre + "adapter.dilation.bias", (3,), "rate_bias", i, dgrp)
    add("final_norm.gamma", (d,), "ones", cfg.depth)
    add("final_norm.beta", (d,), "zeros", cfg.depth)
    add("head.weight", (d, cfg.classes), "zeros", cfg.depth, "classifier")
    add("head.bias", (cfg.classes,), "zeros", cfg.depth, "classifier")
    return specs


def check_freeze(cfg: ModelConfig, mode: str) -> None:
    """The adapters a freeze mode needs: 'adapter' trains them, so there
    must be some."""
    if mode == "adapter" and not cfg.adapter.active(cfg.depth):
        raise ConfigError("freeze mode 'adapter' requires an adapter variant other than 'none'")


def group_is_trainable(group: str, mode: str) -> bool:
    """Whether a parameter group trains under a freeze mode. The
    classifier head trains in every mode."""
    if mode not in FREEZE_MODES:
        raise ConfigError(f"unknown freeze mode {mode!r}")
    if mode == "full":
        return True
    if group == "classifier":
        return True
    if mode == "adapter":
        return group.startswith("adapter.") or group.startswith("dilation.")
    return False  # linear_probe: head only


@dataclass(frozen=True)
class ParamCount:
    trainable: int
    total: int
    ratio: float
    groups: dict[str, dict]  # group -> {"params": int, "trainable": bool}


def count_tunable_params(cfg: ModelConfig, mode: str) -> ParamCount:
    """Exact parameter counts under a freeze mode, from the layout alone
    (no allocation). ``apply_freeze`` sets a model's flags by the same
    rule, ``group_is_trainable``."""
    groups: dict[str, dict] = {}
    for spec in parameter_layout(cfg):
        g = groups.setdefault(
            spec.group, {"params": 0, "trainable": group_is_trainable(spec.group, mode)})
        g["params"] += spec.size

    total = sum(g["params"] for g in groups.values())
    trainable = sum(g["params"] for g in groups.values() if g["trainable"])
    return ParamCount(trainable=trainable, total=total,
                      ratio=trainable / total if total else 0.0, groups=groups)


def derive_bottleneck_width(hidden: int, depth: int, classes: int,
                            variant: str = "d2_conv3d",
                            target: int = PARAM_BUDGET_TARGET) -> int:
    """The bottleneck width in [1, hidden) whose tunable count (adapters
    in every block plus the classifier head) is closest to the parameter
    budget target, the smaller one on a tie. Variant 'none' counts as
    'vanilla'. For the reference geometry (hidden 768, depth 12, 7
    classes) this lands on r = 350."""
    variant = "vanilla" if variant == "none" else variant
    widest = max(hidden - 1, 1)
    if widest == 1:  # the only candidate, and no second width to take a slope from
        return 1

    def tunable(r):
        # every block holds the same adapter, so count one and scale it
        one = ModelConfig(frames=1, height=1, width=1, patch=1, hidden=hidden, depth=1, heads=1,
                          classes=classes, adapter=AdapterConfig(variant=variant, r=r))
        counts = count_tunable_params(one, "adapter")
        head = counts.groups["classifier"]["params"]
        return depth * (counts.trainable - head) + head

    # the count is linear in r, so the best width is next to the exact root
    slope = tunable(2) - tunable(1)
    root = 1 + (target - tunable(1)) // slope
    candidates = {min(max(r, 1), widest) for r in (root, root + 1)}
    return min(candidates, key=lambda r: (abs(tunable(r) - target), r))


# ---------------------------------------------------------------------------
# experiment-config files: flat "section.key = value" lines
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each parser takes a value as config text, as a config echo's JSON value
# or as its own output, and returns the dataclass field value; it raises
# ValueError or TypeError on anything else.

def _int(value) -> int:
    value = int(value) if isinstance(value, str) else value
    if not _is_int(value):
        raise TypeError(f"not an integer: {value!r}")
    return value


def _float(value) -> float:
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _int_or_auto(value) -> int | str:
    return "auto" if isinstance(value, str) and value.lower() == "auto" else _int(value)


def _blocks(value) -> tuple[range, ...] | None:
    """'all' (None), or comma-separated 1-based indices and lo-hi ranges.
    Each index or range stays a ``range`` until ``experiment_from_values``
    has checked it against the depth, so a huge range is never expanded.
    None or a tuple of ranges, this parser's own output, passes through."""
    if isinstance(value, str):
        if value.strip().lower() == "all":
            return None
        out: list[range] = []
        for part in filter(None, (p.strip() for p in value.split(","))):
            lo, dash, hi = part.partition("-")
            lo, hi = int(lo), int(hi if dash else lo)
            if hi < lo:
                raise ValueError(f"reversed range {part!r}")
            out.append(range(lo, hi + 1))
        if not out:
            raise ValueError("names no blocks")
        return tuple(out)
    if value is None or (isinstance(value, tuple)
                         and all(isinstance(b, range) for b in value)):
        return value
    raise TypeError(f"not a block list: {value!r}")


def _expand_blocks(ranges: tuple[range, ...], depth: int) -> tuple[int, ...]:
    """The block indices of ``_blocks`` ranges, each range checked against
    1..depth first."""
    _at_least(1, depth=depth)
    bad = [r for r in ranges if r.start < 1 or r.stop - 1 > depth]
    if bad:
        shown = ", ".join(str(r.start) if r.stop - r.start == 1 else f"{r.start}-{r.stop - 1}"
                          for r in bad)
        raise ConfigError(f"adapter blocks {shown} outside 1..{depth}")
    return tuple(b for r in ranges for b in r)


def _show_blocks(blocks) -> str:
    return "all" if blocks is None else ",".join(map(str, blocks))


# key -> (dataclass, field, parser, echo formatter or None to echo as is).
# The defaults are the dataclass field defaults.
_KEYS: dict[str, tuple[type, str, Callable, Callable | None]] = {
    "model.frames": (ModelConfig, "frames", _int, None),
    "model.height": (ModelConfig, "height", _int, None),
    "model.width": (ModelConfig, "width", _int, None),
    "model.patch": (ModelConfig, "patch", _int, None),
    "model.hidden": (ModelConfig, "hidden", _int, None),
    "model.depth": (ModelConfig, "depth", _int, None),
    "model.heads": (ModelConfig, "heads", _int, None),
    "model.mlp_ratio": (ModelConfig, "mlp_ratio", _float, None),
    "model.classes": (ModelConfig, "classes", _int, None),
    "adapter.variant": (AdapterConfig, "variant", _str, None),
    "adapter.r": (AdapterConfig, "r", _int_or_auto, None),
    "adapter.blocks": (AdapterConfig, "blocks", _blocks, _show_blocks),
    "adapter.position": (AdapterConfig, "position", _str, None),
    "train.lr": (TrainConfig, "lr", _float, None),
    "train.weight_decay": (TrainConfig, "weight_decay", _float, None),
    "train.batch": (TrainConfig, "batch", _int, None),
    "train.epochs": (TrainConfig, "epochs", _int, None),
    "train.seed": (TrainConfig, "seed", _int, None),
    "train.eval_every": (TrainConfig, "eval_every", _int, None),
    "train.freeze": (TrainConfig, "freeze", _str, None),
    "data.clips_per_class": (ExperimentConfig, "clips_per_class", _int, None),
    "data.noise": (ExperimentConfig, "noise", _float, None),
    "out.dir": (ExperimentConfig, "out_dir", _str, None),
}


def _parse(key: str, value, where: str = ""):
    try:
        return _KEYS[key][2](value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}bad value for {key!r}: {value!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse and type-check the flat key-value format. Unknown keys are
    rejected by name; '#' starts a comment."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        values[key] = _parse(key, val, f"{source}:{lineno}: ")
    return values


def experiment_from_values(values: dict) -> ExperimentConfig:
    """Build a fully validated ExperimentConfig from flat key-values, each
    as config text, a config echo's JSON value or a parsed value. Absent
    keys take the dataclass defaults; an unknown key is rejected by name,
    as in config text."""
    for key in values:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    fields: dict[type, dict] = {ModelConfig: {}, AdapterConfig: {}, TrainConfig: {},
                                ExperimentConfig: {}}
    for key, (cls, name, _, _) in _KEYS.items():
        if key in values:
            fields[cls][name] = _parse(key, values[key])
    adapter = fields[AdapterConfig]
    if adapter.get("blocks") is not None:
        adapter["blocks"] = _expand_blocks(adapter["blocks"],
                                           fields[ModelConfig].get("depth", ModelConfig.depth))
    if adapter.get("r") == "auto":
        geometry = ModelConfig(**fields[ModelConfig])
        adapter["r"] = derive_bottleneck_width(
            geometry.hidden, geometry.depth, geometry.classes,
            variant=adapter.get("variant", AdapterConfig.variant))
    model = ModelConfig(**fields[ModelConfig], adapter=AdapterConfig(**adapter))
    return ExperimentConfig(model=model, train=TrainConfig(**fields[TrainConfig]),
                            **fields[ExperimentConfig])


def load_experiment_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return experiment_from_values(parse_config_text(text, source=path))


def config_echo(cfg: ExperimentConfig) -> dict:
    """Flat, JSON-serializable key-value echo of an experiment config."""
    owners = {ModelConfig: cfg.model, AdapterConfig: cfg.model.adapter,
              TrainConfig: cfg.train, ExperimentConfig: cfg}
    echo = {}
    for key, (cls, name, _, show) in _KEYS.items():
        value = getattr(owners[cls], name)
        echo[key] = value if show is None else show(value)
    return echo


def with_overrides(cfg: ExperimentConfig, seed: int | None = None,
                   out_dir: str | None = None) -> ExperimentConfig:
    new = cfg
    if seed is not None:
        new = replace(new, train=replace(new.train, seed=seed))
    if out_dir is not None:
        new = replace(new, out_dir=out_dir)
    return new
