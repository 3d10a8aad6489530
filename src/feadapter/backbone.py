"""Frame-wise ViT video classifier with temporal average pooling.

Each frame is encoded independently by a pre-norm ViT (spatial
attention only); the per-frame class tokens are averaged over time,
normalized, and classified. Temporal structure enters only through
adapters hooked into the blocks.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .adapter import RATE_HEAD_BIAS, AdapterWeights, apply_adapter
from .config import ModelConfig, parameter_layout
from .errors import ConfigError, ShapeError, UsageError
from .tensor import Tensor


def patchify_clips(clips: np.ndarray, patch: int) -> np.ndarray:
    """(B, T, 3, H, W) -> (B, T, N, 3*P*P), raster patch order."""
    b, t, c, h, w = clips.shape
    gh, gw = h // patch, w // patch
    x = clips.reshape(b, t, c, gh, patch, gw, patch)
    x = x.transpose(0, 1, 3, 5, 2, 4, 6)  # patches indexed (gh, gw), contents (c, P, P)
    return np.ascontiguousarray(x).reshape(b, t, gh * gw, c * patch * patch)


def embed_tokens(patches, proj_w, proj_b, cls_token, pos_embed) -> Tensor:
    """Project patch rows, prepend the class token at index 0, add
    positional embeddings to all N+1 rows."""
    patches = patches if isinstance(patches, Tensor) else Tensor(patches)
    if patches.shape[-1] != proj_w.shape[0]:
        raise ShapeError(f"patch width {patches.shape[-1]} does not match projection {proj_w.shape}")
    tok = T.matmul(patches, proj_w, proj_b)
    lead = tok.shape[:-2]
    hidden = tok.shape[-1]
    cls = T.broadcast_to(cls_token, (*lead, 1, hidden))
    return T.concat([cls, tok], axis=-2) + pos_embed


def mhsa(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention over the second-to-
    last axis, with output projection. Works for any leading shape."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    lead = x.shape[:-2]
    s, hidden = x.shape[-2:]
    if hidden % heads:
        raise ConfigError(f"hidden {hidden} not divisible by heads {heads}")
    dh = hidden // heads
    scale = 1.0 / math.sqrt(dh)

    def split(t):
        return T.moveaxis(T.reshape(t, (*lead, s, heads, dh)), -2, -3)

    q = split(T.matmul(x, wq, bq))
    k = split(T.matmul(x, wk, bk))
    v = split(T.matmul(x, wv, bv))
    att = T.softmax_lastdim(T.matmul(q, T.moveaxis(k, -1, -2)) * scale)
    ctx = T.matmul(att, v)                       # (..., heads, s, dh)
    ctx = T.reshape(T.moveaxis(ctx, -3, -2), (*lead, s, hidden))
    return T.matmul(ctx, wo, bo)


def temporal_average_pool(cls_tokens) -> Tensor:
    """Arithmetic mean of per-frame class tokens over the frame axis:
    (..., T, hidden) -> (..., hidden)."""
    cls_tokens = cls_tokens if isinstance(cls_tokens, Tensor) else Tensor(cls_tokens)
    if cls_tokens.data.ndim < 2 or cls_tokens.shape[-2] == 0:
        raise UsageError(f"need at least one frame of class tokens, got shape {cls_tokens.shape}")
    return T.mean_axis(cls_tokens, axis=-2)


# ParamSpec.init -> draw(rng, shape), in float64; only the normal draws
# consume the generator
INITS = {
    "zeros": lambda rng, shape: np.zeros(shape),
    "ones": lambda rng, shape: np.ones(shape),
    "embed": lambda rng, shape: rng.normal(0.0, 0.02, size=shape),
    "xavier": lambda rng, shape: rng.normal(0.0, math.sqrt(2.0 / sum(shape)), size=shape),
    "conv": lambda rng, shape: rng.normal(0.0, 1.0 / math.sqrt(math.prod(shape[1:])),
                                          size=shape),
    "rate_bias": lambda rng, shape: np.full(shape, RATE_HEAD_BIAS),
}


class VideoViT:
    """The assembled video classifier.

    Weights live in a flat name -> Tensor dict, and ``layout`` maps each
    name to its ``parameter_layout`` spec. Backbone and adapter weights
    are drawn from independent seeded streams, so the backbone bytes are
    identical across adapter configurations for a given seed. A
    constructed model is immutable during evaluation; training mutates
    weights under a single writer.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.seed = seed
        self.dtype = np.dtype(dtype)
        backbone_ss, adapter_ss = np.random.SeedSequence(seed).spawn(2)
        rng_b = np.random.Generator(np.random.PCG64(backbone_ss))
        rng_a = np.random.Generator(np.random.PCG64(adapter_ss))
        self.layout = {spec.name: spec for spec in parameter_layout(cfg)}
        self.params: dict[str, Tensor] = {}
        for spec in self.layout.values():
            rng = rng_b if spec.group in ("backbone", "classifier") else rng_a
            self.params[spec.name] = Tensor(
                INITS[spec.init](rng, spec.shape).astype(self.dtype), requires_grad=True)

    # -- forward ------------------------------------------------------

    def _check_clips(self, clips: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        expected = (cfg.frames, 3, cfg.height, cfg.width)
        if clips.ndim != 5 or clips.shape[1:] != expected:
            raise ShapeError(
                f"clip extents {clips.shape} do not match expected (batch,)+{expected}")
        return clips

    def _adapter_weights(self, i: int) -> AdapterWeights:
        p, pre = self.params, f"blocks.{i}.adapter."
        return AdapterWeights(
            down_w=p[pre + "down.weight"], down_b=p[pre + "down.bias"],
            up_w=p[pre + "up.weight"], up_b=p[pre + "up.bias"],
            kernel=p.get(pre + "conv.kernel"),
            dil_w=p.get(pre + "dilation.weight"), dil_b=p.get(pre + "dilation.bias"),
        )

    def _run_adapter(self, x: Tensor, i: int) -> Tensor:
        cfg = self.cfg
        b, t, s, hidden = x.shape
        flat = T.reshape(x, (b, t * s, hidden))
        out = apply_adapter(flat, self._adapter_weights(i), cfg.adapter, t, cfg.grid)
        return T.reshape(out, (b, t, s, hidden))

    def _block(self, x: Tensor, i: int) -> Tensor:
        """Block ``i`` over (batch, frames, N+1, hidden) tokens. The head
        reads only the class tokens of the last block, so that block
        returns them alone, (batch, frames, hidden): it drops the patch
        rows once nothing reads them, before its MLP unless an
        ``after_mlp`` adapter's conv still needs the full grid."""
        cfg = self.cfg
        p, pre = self.params, f"blocks.{i}."
        # parameter_layout gives a block adapter weights iff it carries one
        hook = cfg.adapter.position if pre + "adapter.down.weight" in p else None
        last = i == cfg.depth - 1
        if hook == "before_mhsa":
            x = self._run_adapter(x, i)
        h = T.layer_norm(x, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
        x = x + mhsa(h,
                     p[pre + "attn.q.weight"], p[pre + "attn.q.bias"],
                     p[pre + "attn.k.weight"], p[pre + "attn.k.bias"],
                     p[pre + "attn.v.weight"], p[pre + "attn.v.bias"],
                     p[pre + "attn.out.weight"], p[pre + "attn.out.bias"],
                     cfg.heads)
        if hook == "after_mhsa":
            x = self._run_adapter(x, i)
        if last and hook != "after_mlp":
            x = x[:, :, 0, :]
        h = T.layer_norm(x, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
        # rebind h first: the ln2 output is then freed before GELU allocates
        h = T.matmul(h, p[pre + "mlp.fc1.weight"], p[pre + "mlp.fc1.bias"])
        h = T.gelu(h)
        x = x + T.matmul(h, p[pre + "mlp.fc2.weight"], p[pre + "mlp.fc2.bias"])
        if hook == "after_mlp":
            x = self._run_adapter(x, i)
            if last:
                x = x[:, :, 0, :]
        return x

    def frozen_prefix(self) -> int | None:
        """The first block holding a gradient-tracked tensor, or depth
        when only the final norm and head are tracked (or nothing is).
        The embedding and the blocks before it are a frozen prefix whose
        output no update can change. None when an embedding tensor is
        tracked: then there is no frozen prefix."""
        starts = [self.layout[name].entry for name, t in self.params.items() if t.requires_grad]
        if None in starts:
            return None
        return min(starts, default=self.cfg.depth)

    def encode_prefix(self, clips, stop: int) -> Tensor:
        """The tokens entering block ``stop`` (0 <= stop <= depth): the
        embedded clips run through blocks 0..stop-1,
        (batch, frames, N+1, hidden), or the class tokens alone,
        (batch, frames, hidden), when ``stop`` is the depth."""
        if not 0 <= stop <= self.cfg.depth:
            raise UsageError(f"stop block {stop} outside [0, {self.cfg.depth}]")
        clips = np.asarray(clips, dtype=self.dtype)
        clips = self._check_clips(clips)
        p = self.params
        patches = patchify_clips(clips, self.cfg.patch)
        x = embed_tokens(Tensor(patches), p["patch_embed.weight"], p["patch_embed.bias"],
                         p["cls_token"], p["pos_embed"])
        for i in range(stop):
            x = self._block(x, i)
        return x

    def encode(self, clips, start: int | None = None) -> Tensor:
        """Pooled, normalized clip features: (batch, hidden). With
        ``start`` given, ``clips`` is instead the batch of tokens that
        ``encode_prefix(clips, start)`` returns, and only the blocks
        from ``start`` on run."""
        cfg = self.cfg
        if start is None:
            x, start = self.encode_prefix(clips, 0), 0
        else:
            if not 0 <= start <= cfg.depth:
                raise UsageError(f"start block {start} outside [0, {cfg.depth}]")
            x = Tensor(clips)
            expected = (cfg.frames, cfg.hidden) if start == cfg.depth else \
                (cfg.frames, cfg.tokens_per_frame, cfg.hidden)
            if x.shape[1:] != expected:
                raise ShapeError(
                    f"prefix tokens {x.shape} do not match expected (batch,)+{expected}")
        for i in range(start, cfg.depth):
            x = self._block(x, i)
        p = self.params
        pooled = temporal_average_pool(x)        # x: class tokens, (batch, frames, hidden)
        return T.layer_norm(pooled, p["final_norm.gamma"], p["final_norm.beta"])

    def forward(self, clips, start: int | None = None) -> Tensor:
        """Logits for a batch of clips, (batch, classes). ``start`` is as
        for ``encode``."""
        feats = self.encode(clips, start)
        return T.matmul(feats, self.params["head.weight"], self.params["head.bias"])

    # -- parameter access ---------------------------------------------

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None
