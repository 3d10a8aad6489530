"""Backbone contracts: tokenization, attention, pooling, whole-model
forward against a plain-numpy reference, and adapter hook behavior."""

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

from helpers import attention_oracle, reference_forward


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
        for i in range(cfg.depth):
            x = m._block(x, i)
            assert x.shape == (2, cfg.frames, cfg.tokens_per_frame, cfg.hidden)

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
        # must be gone before GELU allocates
        m = VideoViT(desk_cfg(adapter=AdapterConfig(variant="d2_conv3d", r=8)), seed=3)
        norms, dead = [], []
        real_norm, real_gelu = T.layer_norm, T.gelu

        def norm(*args):
            out = real_norm(*args)
            norms.append(weakref.ref(out.data))
            return out

        def gelu(x):
            dead.append(norms[-1]() is None)
            return real_gelu(x)

        monkeypatch.setattr(T, "layer_norm", norm)
        monkeypatch.setattr(T, "gelu", gelu)
        clips = np.random.default_rng(5).normal(size=(2, 4, 3, 16, 16)).astype(np.float32)
        with T.no_grad():
            m.forward(clips)
        assert dead == [True] * m.cfg.depth


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
