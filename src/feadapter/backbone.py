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


def mhsa(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int, queries: int | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention over the second-to-
    last axis, with output projection. Works for any leading shape.

    With ``queries`` given, only the first ``queries`` rows attend: the
    Q projection, scores, softmax, context and output projection run on
    those rows, keys and values on every row, and the result holds
    those rows alone. With two or more, each is bitwise that row of the
    full attention; a single row's products take numpy's matrix-vector
    path, which may round differently."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    lead = x.shape[:-2]
    hidden = x.shape[-1]
    if hidden % heads:
        raise ConfigError(f"hidden {hidden} not divisible by heads {heads}")
    dh = hidden // heads
    scale = 1.0 / math.sqrt(dh)

    def split(t):
        return T.moveaxis(T.reshape(t, (*t.shape[:-1], heads, dh)), -2, -3)

    q = split(T.matmul(x if queries is None else x[..., :queries, :], wq, bq))
    k = T.matmul(x, wk, bk)
    k = T.moveaxis(T.reshape(k, (*k.shape[:-1], heads, dh)), -3, -1)  # (..., heads, dh, rows)
    v = split(T.matmul(x, wv, bv))
    att = T.softmax_lastdim(T.matmul(q, k) * scale)
    ctx = T.matmul(att, v)                       # (..., heads, rows, dh)
    ctx = T.reshape(T.moveaxis(ctx, -3, -2), (*lead, att.shape[-2], hidden))
    return T.matmul(ctx, wo, bo)


# The rows that attend in a last block whose patch rows nothing reads
# after its attention: the class token, plus one patch row so that
# every product keeps two rows. numpy computes a one-row product on its
# matrix-vector path, which may round differently from the GEMM that
# computes the same row among others; with two rows every logit and
# gradient keeps the bits of a block in which every row attends.
_QUERY_ROWS = 2


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
        returns them alone, (batch, frames, hidden), and computes only
        the rows that what follows reads. With no adapter or a
        ``before_mhsa`` one, only its first ``_QUERY_ROWS`` rows attend
        (keys and values come from every row) and its MLP runs on the
        class tokens. An adapter after the attention needs the full
        grid for its conv, so every row attends, and the patch rows are
        dropped after an ``after_mhsa`` adapter, or at the block's end
        with ``after_mlp``."""
        cfg = self.cfg
        p, pre = self.params, f"blocks.{i}."
        # parameter_layout gives a block adapter weights iff it carries one
        hook = cfg.adapter.position if pre + "adapter.down.weight" in p else None
        last = i == cfg.depth - 1
        if hook == "before_mhsa":
            x = self._run_adapter(x, i)
        h = T.layer_norm(x, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
        queries = _QUERY_ROWS if last and hook in (None, "before_mhsa") else None
        if queries:
            x = x[:, :, :queries, :]
        # the attention output is added at once, so it is freed before the MLP
        x = x + mhsa(h,
                     p[pre + "attn.q.weight"], p[pre + "attn.q.bias"],
                     p[pre + "attn.k.weight"], p[pre + "attn.k.bias"],
                     p[pre + "attn.v.weight"], p[pre + "attn.v.bias"],
                     p[pre + "attn.out.weight"], p[pre + "attn.out.bias"],
                     cfg.heads, queries)
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

    def _embed(self, clips: np.ndarray) -> Tensor:
        p = self.params
        patches = patchify_clips(clips, self.cfg.patch)
        return embed_tokens(Tensor(patches), p["patch_embed.weight"], p["patch_embed.bias"],
                            p["cls_token"], p["pos_embed"])

    def _per_clip(self, fn, x, start: int | None) -> Tensor:
        """``fn(x)``, the per-clip part of a pass from block ``start``,
        through ``tensor.chunked`` when ``x`` is more than one chunk and
        the pass is forward-only or its gradient reaches more than the
        last block (from ``start`` or the frozen prefix, whichever is
        later): so a tracked forward from clips chunks exactly when one
        from train()'s cache does, and their gradients stay bitwise equal."""
        if len(x) > T._CHUNK and (not T._grad_enabled or
                                  max(start or 0, self.frozen_prefix() or 0) < self.cfg.depth - 1):
            return T.chunked(fn, x)
        return fn(x)

    def _blocks(self, x, start: int | None, stop: int) -> Tensor:
        """Checked clips (``start`` None) or prefix tokens through blocks
        ``start``..``stop``-1."""
        x = self._embed(x) if start is None else Tensor(x)
        for i in range(start or 0, stop):
            x = self._block(x, i)
        return x

    def encode_prefix(self, clips, stop: int) -> Tensor:
        """The tokens entering block ``stop`` (0 <= stop <= depth): the
        embedded clips run through blocks 0..stop-1,
        (batch, frames, N+1, hidden), or the class tokens alone,
        (batch, frames, hidden), when ``stop`` is the depth."""
        if not 0 <= stop <= self.cfg.depth:
            raise UsageError(f"stop block {stop} outside [0, {self.cfg.depth}]")
        clips = self._check_clips(np.asarray(clips, dtype=self.dtype))
        return self._per_clip(lambda c: self._blocks(c, None, stop), clips, None)

    def _clip_features(self, x, start: int | None) -> Tensor:
        """The per-clip part of ``encode``: checked clips (``start``
        None) or prefix tokens through the blocks, pooled over the
        frames, (batch, hidden)."""
        # the last block returns class tokens alone, (batch, frames, hidden)
        return temporal_average_pool(self._blocks(x, start, self.cfg.depth))

    def encode(self, clips, start: int | None = None) -> Tensor:
        """Pooled, normalized clip features: (batch, hidden). With
        ``start`` given, ``clips`` is instead the batch of tokens that
        ``encode_prefix(clips, start)`` returns, and only the blocks
        from ``start`` on run.

        The per-clip part runs through ``_per_clip``, so a batch of more
        than one chunk runs in chunks, two at a time on threads, in a
        forward-only pass and in a tracked one whose gradient reaches
        more than the last block; the final norm (and the head after
        it) sees the whole batch in every pass (README, "Engine: whole
        chunks on two threads")."""
        cfg = self.cfg
        if start is None:
            clips = self._check_clips(np.asarray(clips, dtype=self.dtype))
        else:
            if not 0 <= start <= cfg.depth:
                raise UsageError(f"start block {start} outside [0, {cfg.depth}]")
            clips = np.asarray(clips.data if isinstance(clips, Tensor) else clips)
            expected = (cfg.frames, cfg.hidden) if start == cfg.depth else \
                (cfg.frames, cfg.tokens_per_frame, cfg.hidden)
            if clips.shape[1:] != expected:
                raise ShapeError(
                    f"prefix tokens {clips.shape} do not match expected (batch,)+{expected}")
        pooled = self._per_clip(lambda chunk: self._clip_features(chunk, start), clips, start)
        p = self.params
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
