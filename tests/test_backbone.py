"""Backbone contracts: tokenization, attention, pooling, whole-model
forward against a plain-numpy reference, and adapter hook behavior."""

import copy
import dataclasses
import hashlib
import itertools
import weakref

import numpy as np
import pytest

from feadapter import (Tensor, VideoViT, embed_tokens, mhsa, patchify_clips,
                       temporal_average_pool)
from feadapter import tensor as T
from feadapter.config import AdapterConfig, ModelConfig, parameter_layout
from feadapter.errors import ConfigError, ShapeError, UsageError
from feadapter.training import apply_freeze

from helpers import attention_oracle, reference_forward, vjp_arrays


def desk_cfg(**kw):
    base = dict(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                heads=4, classes=3)
    base.update(kw)
    return ModelConfig(**base)


def _patch_rows(frame, patch):
    """The patch rows of one (3, H, W) frame, through the batched form."""
    return patchify_clips(frame[None, None], patch)[0, 0]


class TestPatchify:
    def test_reference_geometry(self):
        out = patchify_clips(np.zeros((2, 3, 3, 224, 224), dtype=np.float32), 16)
        assert out.shape == (2, 3, 196, 768)  # N = 224*224/16^2, width = 3*16^2

    def test_smallest_multipatch_grid(self):
        out = _patch_rows(np.zeros((3, 32, 32), dtype=np.float32), 16)
        assert out.shape == (4, 768)

    def test_constant_frame_gives_identical_rows(self):
        out = _patch_rows(np.full((3, 32, 32), 0.7, dtype=np.float32), 16)
        assert (out == out[0]).all()

    def test_raster_order_and_channel_major_rows(self):
        h = w = 4
        p = 2
        frame = np.arange(3 * h * w, dtype=np.float32).reshape(3, h, w)
        rows = _patch_rows(frame, p)
        # row k covers patch (k // 2, k % 2); its entries are the
        # channel-major flattening of the 2x2 patch
        for k in range(4):
            gi, gj = divmod(k, 2)
            ref = frame[:, gi * p:(gi + 1) * p, gj * p:(gj + 1) * p].ravel()
            np.testing.assert_array_equal(rows[k], ref)

    def test_clips_and_frames_patchified_independently(self):
        rng = np.random.default_rng(20)
        clips = rng.normal(size=(2, 3, 3, 8, 8)).astype(np.float32)
        out = patchify_clips(clips, 4)
        for b in range(2):
            for t in range(3):
                np.testing.assert_array_equal(out[b, t], _patch_rows(clips[b, t], 4))


class TestEmbedTokens:
    def test_zero_patches_zero_positions(self):
        hidden, n, width = 8, 4, 12
        proj_w = Tensor(np.random.default_rng(0).normal(size=(width, hidden)).astype(np.float32))
        proj_b = Tensor(np.zeros(hidden, dtype=np.float32))
        cls = Tensor(np.arange(hidden, dtype=np.float32))
        pos = Tensor(np.zeros((n + 1, hidden), dtype=np.float32))
        out = embed_tokens(np.zeros((2, 3, n, width), dtype=np.float32), proj_w, proj_b, cls, pos).data
        assert out.shape == (2, 3, n + 1, hidden)
        np.testing.assert_array_equal(out[:, :, 0], np.broadcast_to(cls.data, (2, 3, hidden)))
        np.testing.assert_array_equal(out[:, :, 1:], np.zeros((2, 3, n, hidden)))

    def test_output_width_is_hidden_for_any_patch_size(self):
        rng = np.random.default_rng(1)
        for width in (12, 48, 192):
            proj_w = Tensor(rng.normal(size=(width, 16)).astype(np.float32))
            out = embed_tokens(rng.normal(size=(1, 2, 5, width)).astype(np.float32), proj_w,
                               Tensor(np.zeros(16, dtype=np.float32)),
                               Tensor(np.zeros(16, dtype=np.float32)),
                               Tensor(np.zeros((6, 16), dtype=np.float32)))
            assert out.shape == (1, 2, 6, 16)

    def test_distinct_frames_share_class_row(self):
        rng = np.random.default_rng(2)
        proj_w = Tensor(rng.normal(size=(12, 8)).astype(np.float32))
        proj_b = Tensor(np.zeros(8, dtype=np.float32))
        cls = Tensor(rng.normal(size=(8,)).astype(np.float32))
        pos = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
        out = embed_tokens(rng.normal(size=(2, 2, 4, 12)).astype(np.float32),
                           proj_w, proj_b, cls, pos).data
        for b, t in ((0, 1), (1, 0), (1, 1)):
            np.testing.assert_array_equal(out[0, 0, 0], out[b, t, 0])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            embed_tokens(np.zeros((1, 1, 4, 10), dtype=np.float32),
                         Tensor(np.zeros((12, 8), dtype=np.float32)),
                         Tensor(np.zeros(8, dtype=np.float32)),
                         Tensor(np.zeros(8, dtype=np.float32)),
                         Tensor(np.zeros((5, 8), dtype=np.float32)))


def _attn_weights(rng, hidden):
    def lin():
        return (Tensor(rng.normal(size=(hidden, hidden)), dtype=np.float64),
                Tensor(rng.normal(size=(hidden,)), dtype=np.float64))
    wq, bq = lin()
    wk, bk = lin()
    wv, bv = lin()
    wo, bo = lin()
    return wq, bq, wk, bk, wv, bv, wo, bo


class TestMhsa:
    def test_single_token_attention_weight_is_one(self):
        rng = np.random.default_rng(3)
        wq, bq, wk, bk, wv, bv, wo, bo = _attn_weights(rng, 8)
        x = Tensor(rng.normal(size=(1, 8)), dtype=np.float64)
        out = mhsa(x, wq, bq, wk, bk, wv, bv, wo, bo, heads=2).data
        direct = (x.data @ wv.data + bv.data) @ wo.data + bo.data
        np.testing.assert_allclose(out, direct, atol=1e-12)

    def test_identical_rows_map_to_identical_rows(self):
        rng = np.random.default_rng(4)
        wq, bq, wk, bk, wv, bv, wo, bo = _attn_weights(rng, 8)
        row = rng.normal(size=(1, 8))
        x = Tensor(np.repeat(row, 4, axis=0), dtype=np.float64)
        out = mhsa(x, wq, bq, wk, bk, wv, bv, wo, bo, heads=4).data
        np.testing.assert_allclose(out, np.repeat(out[:1], 4, axis=0), atol=1e-12)

    def test_three_tokens_against_direct_formula(self):
        rng = np.random.default_rng(5)
        wq, bq, wk, bk, wv, bv, wo, bo = _attn_weights(rng, 8)
        x = rng.normal(size=(3, 8))
        out = mhsa(Tensor(x, dtype=np.float64), wq, bq, wk, bk, wv, bv, wo, bo, heads=2).data
        ref = attention_oracle(x, wq.data, bq.data, wk.data, bk.data,
                               wv.data, bv.data, wo.data, bo.data, heads=2)
        assert np.abs(out - ref).max() < 1e-10

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(6)
        wq, bq, wk, bk, wv, bv, wo, bo = _attn_weights(rng, 8)
        with pytest.raises(ConfigError):
            mhsa(Tensor(np.zeros((2, 8))), wq, bq, wk, bk, wv, bv, wo, bo, heads=3)


class TestTemporalPool:
    def test_identical_tokens(self):
        tok = np.tile(np.arange(6, dtype=np.float32), (4, 1))
        np.testing.assert_array_equal(temporal_average_pool(tok).data, tok[0])

    def test_two_frame_midpoint(self):
        tok = np.stack([np.full(3, 1.0), np.full(3, 3.0)]).astype(np.float32)
        np.testing.assert_allclose(temporal_average_pool(tok).data, np.full(3, 2.0))

    def test_sixteen_frames_against_float64_sum(self):
        rng = np.random.default_rng(7)
        tok = rng.normal(size=(16, 32)).astype(np.float32)
        out = temporal_average_pool(tok).data
        ref = tok.astype(np.float64).sum(axis=0) / 16.0
        assert np.abs(out - ref).max() < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            temporal_average_pool(np.zeros((0, 8), dtype=np.float32))


class TestForwardVideo:
    def test_logit_shape_contract(self):
        m = VideoViT(desk_cfg(), seed=0)
        clip = np.random.default_rng(8).normal(size=(4, 3, 16, 16)).astype(np.float32)
        assert m.forward(clip[None]).shape == (1, 3)
        assert m.forward(clip[None].repeat(2, 0)).shape == (2, 3)

    def test_unbatched_clip_rejected(self):
        m = VideoViT(desk_cfg(), seed=0)
        with pytest.raises(ShapeError, match="batch"):
            m.forward(np.zeros((4, 3, 16, 16), dtype=np.float32))

    def test_frame_duplication_leaves_logits_unchanged(self):
        rng = np.random.default_rng(9)
        clip = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        short = VideoViT(desk_cfg(frames=4), seed=0).forward(clip[None]).data
        doubled = VideoViT(desk_cfg(frames=8), seed=0).forward(
            np.concatenate([clip, clip], axis=0)[None]).data
        assert np.abs(short - doubled).max() < 1e-6

    def test_matches_framewise_numpy_reference(self):
        cfg = desk_cfg()
        m = VideoViT(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(10)
        # make the zero-initialized head non-trivial for the comparison
        m.params["head.weight"].data = rng.normal(size=(cfg.hidden, cfg.classes))
        clip = rng.normal(size=(cfg.frames, 3, 16, 16))
        ours = m.forward(clip[None].astype(np.float64)).data[0]
        ref = reference_forward(m.params, cfg, clip)
        assert np.abs(ours - ref).max() < 1e-9

    def test_extent_mismatch_lists_expected_and_actual(self):
        m = VideoViT(desk_cfg(), seed=0)
        with pytest.raises(ShapeError, match=r"\(4, 3, 16, 16\)"):
            m.forward(np.zeros((1, 4, 3, 32, 32), dtype=np.float32))


def _randomize_adapters(model, seed=11, scale=0.3):
    rng = np.random.default_rng(seed)
    for name, t in model.params.items():
        if ".adapter." in name:
            t.data = rng.normal(0.0, scale, size=t.shape).astype(t.data.dtype)


def _randomize_head(model, seed=19):
    # the head starts at zero, which would make every logit trivially 0
    w = model.params["head.weight"]
    w.data = np.random.default_rng(seed).normal(size=w.shape).astype(w.data.dtype)


class TestInvariants:
    def test_frame_permutation_invariance_without_adapters(self):
        rng = np.random.default_rng(12)
        clip = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        m = VideoViT(desk_cfg(), seed=1)
        _randomize_head(m)
        base = m.forward(clip[None]).data
        perm = m.forward(clip[None, [2, 0, 3, 1]]).data
        assert np.abs(base - perm).max() < 1e-6

    def test_conv_adapter_breaks_frame_permutation_invariance(self):
        rng = np.random.default_rng(13)
        clip = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        cfg = desk_cfg(adapter=AdapterConfig(variant="d2_conv3d", r=8))
        m = VideoViT(cfg, seed=1)
        _randomize_adapters(m)
        _randomize_head(m)
        base = m.forward(clip[None]).data
        perm = m.forward(clip[None, [2, 0, 3, 1]]).data
        assert np.abs(base - perm).max() > 1e-6

    def test_token_count_conserved_per_block(self):
        cfg = desk_cfg(adapter=AdapterConfig(variant="d2_conv3d", r=8))
        m = VideoViT(cfg, seed=0)
        x = Tensor(np.random.default_rng(14).normal(
            size=(2, cfg.frames, cfg.tokens_per_frame, cfg.hidden)).astype(np.float32))
        for i in range(cfg.depth - 1):
            x = m._block(x, i)
            assert x.shape == (2, cfg.frames, cfg.tokens_per_frame, cfg.hidden)
        # the last block returns only the class tokens the head reads
        assert m._block(x, cfg.depth - 1).shape == (2, cfg.frames, cfg.hidden)

    @pytest.mark.parametrize("variant", ["vanilla", "dw_conv3d", "d2_conv3d"])
    @pytest.mark.parametrize("position", ["before_mhsa", "after_mhsa", "after_mlp"])
    def test_identity_initialized_adapters_change_no_logit_bit(self, variant, position):
        rng = np.random.default_rng(15)
        clips = rng.normal(size=(3, 4, 3, 16, 16)).astype(np.float64)
        plain = VideoViT(desk_cfg(), seed=2, dtype=np.float64).forward(clips).data
        cfg = desk_cfg(adapter=AdapterConfig(variant=variant, r=8, position=position))
        adapted = VideoViT(cfg, seed=2, dtype=np.float64).forward(clips).data
        np.testing.assert_array_equal(plain, adapted)

    def test_adapter_hook_runs_once_per_block(self):
        cfg = desk_cfg(adapter=AdapterConfig(variant="vanilla", r=8,
                                             blocks=(1,), position="before_mhsa"))
        m = VideoViT(cfg, seed=0)
        calls = []
        original = m._run_adapter
        m._run_adapter = lambda x, i: calls.append(i) or original(x, i)
        m.forward(np.zeros((1, 4, 3, 16, 16), dtype=np.float32))
        assert calls == [0]

    def test_concurrent_evaluation_is_consistent(self):
        # a constructed model is immutable during evaluation and may
        # serve forward passes from several threads
        from concurrent.futures import ThreadPoolExecutor
        cfg = desk_cfg(adapter=AdapterConfig(variant="d2_conv3d", r=8))
        m = VideoViT(cfg, seed=6)
        _randomize_adapters(m)
        _randomize_head(m)
        rng = np.random.default_rng(17)
        clips = rng.normal(size=(6, 4, 3, 16, 16)).astype(np.float32)
        expected = [m.forward(c[None]).data for c in clips]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda c: m.forward(c[None]).data, clips))
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)


class TestForwardOnlyMemory:
    def test_ln2_output_freed_before_the_mlp_gelu(self, monkeypatch):
        # under no_grad nothing reads the ln2 output after fc1, so it
        # must be gone before GELU allocates. The adapters call GELU too,
        # on their r-wide bottleneck: only the MLP's mlp_width-wide calls
        # count.
        m = VideoViT(desk_cfg(adapter=AdapterConfig(variant="d2_conv3d", r=8)), seed=3)
        norms, dead = [], []
        real_norm, real_gelu = T.layer_norm, T.gelu

        def norm(*args):
            out = real_norm(*args)
            norms.append(weakref.ref(out.data))
            return out

        def gelu(x):
            if x.shape[-1] == m.cfg.mlp_width:
                dead.append(norms[-1]() is None)
            return real_gelu(x)

        monkeypatch.setattr(T, "layer_norm", norm)
        monkeypatch.setattr(T, "gelu", gelu)
        clips = np.random.default_rng(5).normal(size=(2, 4, 3, 16, 16)).astype(np.float32)
        with T.no_grad():
            m.forward(clips)
        assert dead == [True] * m.cfg.depth


def _untrimmed_logits(m, clips):
    """The logits with a last block that keeps every token: ``m``'s
    blocks run as if one more followed them, then the class tokens are
    sliced out, pooled, normed and classified."""
    deeper = copy.copy(m)
    deeper.cfg = dataclasses.replace(m.cfg, depth=m.cfg.depth + 1)
    x = deeper.encode_prefix(clips, m.cfg.depth)
    p = m.params
    pooled = temporal_average_pool(x[:, :, 0, :])
    feats = T.layer_norm(pooled, p["final_norm.gamma"], p["final_norm.beta"])
    return T.matmul(feats, p["head.weight"], p["head.bias"])


class TestClassTokenTail:
    """The last block returns only the class tokens the head reads. It
    drops the patch rows after its attention (or its ``after_mhsa``
    adapter), so its MLP runs one row per frame; an ``after_mlp``
    adapter's conv needs the whole grid, so that block drops them at
    its end."""

    @staticmethod
    def model(variant, position, dtype, frames, mode="adapter", blocks=None):
        cfg = desk_cfg(frames=frames, adapter=AdapterConfig(
            variant=variant, r=4, position=position, blocks=blocks))
        m = VideoViT(cfg, seed=7, dtype=dtype)
        apply_freeze(m, mode)
        rng = np.random.default_rng(8)
        for t in m.params.values():
            if t.requires_grad:
                t.data = t.data + rng.normal(0.0, 0.1, size=t.shape).astype(dtype)
        return m

    @staticmethod
    def trimmed_and_untrimmed(m, clips):
        """(logits, trainable gradients) of ``m`` and of its untrimmed
        oracle on ``clips`` random clips."""
        rng = np.random.default_rng(9)
        cfg = m.cfg
        x = rng.normal(size=(clips, cfg.frames, 3, cfg.height, cfg.width)).astype(m.dtype)
        labels = np.arange(clips) % cfg.classes
        out = []
        for forward in (m.forward, lambda c: _untrimmed_logits(m, c)):
            m.zero_grad()
            logits = forward(x)
            T.cross_entropy(logits, labels).backward()
            out.append((logits.data, {n: t.grad for n, t in m.params.items() if t.requires_grad}))
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["vanilla", "dw_conv3d", "d2_conv3d"])
    @pytest.mark.parametrize("position", ["before_mhsa", "after_mhsa", "after_mlp"])
    def test_bitwise_equal_to_an_untrimmed_last_block(self, position, variant, dtype):
        # blocks (1,) leaves the last of the two blocks without an adapter
        for frames, clips, blocks in itertools.product((2, 4), (1, 2, 3), (None, (1,))):
            m = self.model(variant, position, dtype, frames, blocks=blocks)
            (logits, grads), (want, want_grads) = self.trimmed_and_untrimmed(m, clips)
            np.testing.assert_array_equal(logits, want)
            assert grads.keys() == want_grads.keys()
            for name, g in grads.items():
                np.testing.assert_array_equal(g, want_grads[name], err_msg=name)

    @pytest.mark.parametrize("position", ["before_mhsa", "after_mhsa", "after_mlp"])
    def test_full_tuning_sums_the_last_mlp_weight_gradients_in_another_order(self, position):
        # a last-block fc weight's gradient sums one outer product per
        # frame: trimmed, a clip's frames are contracted in one GEMM;
        # untrimmed, each frame's product is summed over the clips and
        # frames afterwards, so those two may differ in the last bit. An
        # after_mlp block runs its MLP on every token, so it sums as before
        m = self.model("d2_conv3d", position, np.float64, 4, mode="full")
        (logits, grads), (want, want_grads) = self.trimmed_and_untrimmed(m, 3)
        np.testing.assert_array_equal(logits, want)
        reordered = set() if position == "after_mlp" else {
            f"blocks.1.mlp.{fc}.weight" for fc in ("fc1", "fc2")}
        for name, g in grads.items():
            if name in reordered:
                np.testing.assert_allclose(g, want_grads[name], rtol=1e-12, atol=1e-15)
            else:
                np.testing.assert_array_equal(g, want_grads[name], err_msg=name)

    @pytest.mark.parametrize("position", ["before_mhsa", "after_mhsa", "after_mlp"])
    def test_one_frame_close_to_an_untrimmed_last_block(self, position):
        # with one frame each tail GEMM has a single row, which numpy
        # computes on its matrix-vector path, so the last bit may differ
        # from row 0 of the untrimmed block's 5-row GEMM
        m = self.model("d2_conv3d", position, np.float32, 1)
        (logits, grads), (want, want_grads) = self.trimmed_and_untrimmed(m, 3)
        np.testing.assert_allclose(logits, want, rtol=1e-5, atol=1e-6)
        for name, g in grads.items():
            np.testing.assert_allclose(g, want_grads[name], rtol=1e-4, atol=1e-6, err_msg=name)

    @pytest.mark.parametrize("variant, position, blocks", [
        ("vanilla", "after_mhsa", (1,)), ("vanilla", "before_mhsa", None),
        ("d2_conv3d", "after_mhsa", None)])
    def test_mlp_graph_holds_no_patch_rows(self, variant, position, blocks):
        # the arrays kept by the VJPs of the last block's ln2 and of
        # every op after it: none has the N+1 token axis
        m = self.model(variant, position, np.float32, 4, blocks=blocks)
        cfg, i = m.cfg, m.cfg.depth - 1
        gamma = m.params[f"blocks.{i}.ln2.gamma"]
        gamma.requires_grad = True  # so that ln2's node can be found by its parent
        x = Tensor(np.random.default_rng(10).normal(
            size=(2, cfg.frames, cfg.tokens_per_frame, cfg.hidden)).astype(np.float32),
            requires_grad=True)
        after, held = set(), []
        for node in T.trace_graph(m._block(x, i)):
            if any(p in after or getattr(p, "leaf", None) is gamma for p in node._parents):
                after.add(node)
                held += vjp_arrays(node._vjp).values()
        shapes = [a.shape for a in held if a is not gamma.data]
        assert (2, cfg.frames, 4 * cfg.hidden) in shapes  # the GELU derivative
        assert all(cfg.tokens_per_frame not in shape for shape in shapes), shapes


class TestParameterInventory:
    # SHA-256 over every initial tensor of the 48 configurations below: a
    # change to any initializer, the draw order or the seed streams moves it
    DIGEST = "571cc69151a0e7405edcd9febcc79123104478447c93fa5215d4a5f32e9c1b98"

    def test_initial_weights_are_pinned(self):
        h = hashlib.sha256()
        for variant, position, blocks, dtype in itertools.product(
                ("none", "vanilla", "dw_conv3d", "d2_conv3d"),
                ("before_mhsa", "after_mhsa", "after_mlp"),
                (None, (1, 3)), (np.float32, np.float64)):
            cfg = ModelConfig(frames=2, height=8, width=8, patch=4, hidden=8, depth=3,
                              heads=2, classes=3,
                              adapter=AdapterConfig(variant=variant, r=3, blocks=blocks,
                                                    position=position))
            for name, t in VideoViT(cfg, seed=11, dtype=dtype).params.items():
                h.update(f"{name} {t.data.dtype} {t.shape}".encode())
                h.update(np.ascontiguousarray(t.data).tobytes())
        assert h.hexdigest() == self.DIGEST

    def test_entry_is_the_first_block_reading_the_tensor(self):
        cfg = ModelConfig(frames=2, height=8, width=8, patch=4, hidden=8, depth=3, heads=2,
                          classes=3, adapter=AdapterConfig(variant="d2_conv3d", r=3))
        embedding = {"patch_embed.weight", "patch_embed.bias", "pos_embed", "cls_token"}
        for spec in parameter_layout(cfg):
            if spec.name in embedding:
                expected = None
            elif spec.name.startswith("blocks."):
                expected = int(spec.name.split(".")[1])
            else:  # the final norm and the head read the last block's tokens
                expected = cfg.depth
            assert spec.entry == expected, spec.name
