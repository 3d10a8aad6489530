"""Adapter contracts: bottleneck residuals, token/grid reshaping, the
dynamic rate head, conv reductions, and parameter accounting."""

import numpy as np
import pytest

from feadapter import (AdapterWeights, Tensor, VideoViT, count_tunable_params,
                       derive_bottleneck_width, dilation_rates, fe_adapter,
                       grid_to_tokens, tokens_to_grid, vanilla_adapter)
from feadapter import tensor as T
from feadapter.adapter import RATE_HEAD_BIAS, adapter_params_per_block
from feadapter.config import AdapterConfig, ModelConfig
from feadapter.errors import ShapeError, UsageError

from helpers import grads_close, weighted_scalar


def make_weights(rng, hidden, r, kernel=(3, 3, 3), zero_up=True, dtype=np.float64,
                 fresh_head=True):
    def draw(shape, zero=False):
        arr = np.zeros(shape) if zero else rng.normal(0.0, 0.2, size=shape)
        return Tensor(arr.astype(dtype))

    return AdapterWeights(
        down_w=draw((hidden, r)),
        down_b=draw((r,)),
        up_w=draw((r, hidden), zero=zero_up),
        up_b=draw((hidden,), zero=zero_up),
        kernel=draw((r, *kernel)),
        dil_w=draw((r, 3), zero=fresh_head),
        dil_b=Tensor(np.full(3, RATE_HEAD_BIAS, dtype=dtype)) if fresh_head else draw((3,)),
    )


class TestVanillaAdapter:
    def test_zero_up_projection_is_bitwise_identity(self):
        rng = np.random.default_rng(0)
        w = make_weights(rng, 16, 4, zero_up=True)
        x = rng.normal(size=(10, 16))
        out = vanilla_adapter(Tensor(x), w).data
        np.testing.assert_array_equal(out, x)

    def test_linear_closed_form_with_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(16, 4)))  # orthonormal columns
        w = AdapterWeights(down_w=Tensor(q), down_b=Tensor(np.zeros(4)),
                           up_w=Tensor(q.T), up_b=Tensor(np.zeros(16)))
        x = rng.normal(size=(7, 16))
        out = vanilla_adapter(Tensor(x), w, activation="identity").data
        np.testing.assert_allclose(out, x + x @ (q @ q.T), atol=1e-12)

    @pytest.mark.parametrize("tokens", [1, 5, 40])
    def test_output_shape_matches_input(self, tokens):
        rng = np.random.default_rng(2)
        w = make_weights(rng, 16, 4, zero_up=False)
        x = rng.normal(size=(tokens, 16))
        assert vanilla_adapter(Tensor(x), w).shape == (tokens, 16)

    def test_width_mismatch_rejected(self):
        w = make_weights(np.random.default_rng(3), 16, 4)
        with pytest.raises(ShapeError):
            vanilla_adapter(Tensor(np.zeros((5, 8))), w)


class TestTokensToGrid:
    def test_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3 * 5, 6)).astype(np.float32))
        grid, cls = tokens_to_grid(x, frames=3, grid_h=2, grid_w=2)
        back = grid_to_tokens(grid, cls)
        np.testing.assert_array_equal(back.data, x.data)

    def test_single_frame_raster_ordering(self):
        # T=1, N=4, 2x2 grid: token k (1-based after the class token)
        # lands at raster cell k-1
        r = 3
        x = np.zeros((5, r), dtype=np.float32)
        for k in range(5):
            x[k] = k
        grid, cls = tokens_to_grid(Tensor(x), frames=1, grid_h=2, grid_w=2)
        np.testing.assert_array_equal(cls.data[0], np.zeros(r))
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(grid.data[:, 0, i, j],
                                              np.full(r, 1 + i * 2 + j))

    def test_index_arithmetic_oracle(self):
        rng = np.random.default_rng(5)
        frames, gh, gw, r = 3, 2, 4, 5
        n = gh * gw
        x = rng.normal(size=(frames * (n + 1), r)).astype(np.float32)
        grid, cls = tokens_to_grid(Tensor(x), frames, gh, gw)
        for t in range(frames):
            np.testing.assert_array_equal(cls.data[t], x[t * (n + 1)])
            for i in range(gh):
                for j in range(gw):
                    token = x[t * (n + 1) + 1 + i * gw + j]
                    np.testing.assert_array_equal(grid.data[:, t, i, j], token)

    def test_wrong_token_count_rejected(self):
        with pytest.raises(ShapeError):
            tokens_to_grid(Tensor(np.zeros((11, 4))), frames=2, grid_h=2, grid_w=2)

    def test_reshape_path_is_differentiable(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(10, 4)), dtype=np.float64, requires_grad=True)

        def loss():
            grid, cls = tokens_to_grid(x, frames=2, grid_h=2, grid_w=2)
            return weighted_scalar(grid) + weighted_scalar(cls, seed=1)

        grads_close(loss, [x])


class TestDilationRates:
    def test_fresh_head_starts_at_one(self):
        rng = np.random.default_rng(7)
        w = make_weights(rng, 16, 4, fresh_head=True)
        grid = Tensor(rng.normal(size=(2, 4, 3, 2, 2)))
        rates = dilation_rates(grid, w.dil_w, w.dil_b).data
        assert rates.shape == (2, 3)
        assert np.abs(rates - 1.0).max() < 1e-6

    def test_unbatched_grid_rejected(self):
        w = make_weights(np.random.default_rng(17), 16, 4)
        with pytest.raises(ShapeError, match="batch"):
            dilation_rates(Tensor(np.zeros((4, 3, 2, 2))), w.dil_w, w.dil_b)

    def test_rates_never_below_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            dil_w = Tensor(rng.normal(0, 2.0, size=(4, 3)))
            dil_b = Tensor(rng.normal(0, 2.0, size=(3,)))
            grid = Tensor(rng.normal(0, 3.0, size=(2, 4, 3, 2, 2)))
            rates = dilation_rates(grid, dil_w, dil_b).data
            assert rates.shape == (2, 3)
            assert (rates >= 1.0).all()

    def test_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        dil_w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64, requires_grad=True)
        dil_b = Tensor(rng.normal(size=(3,)), dtype=np.float64, requires_grad=True)
        grid = Tensor(rng.normal(size=(2, 4, 3, 2, 2)), dtype=np.float64, requires_grad=True)
        grads_close(lambda: weighted_scalar(dilation_rates(grid, dil_w, dil_b)),
                    [dil_w, dil_b, grid])


def _conv_cfg(variant, activation="gelu"):
    return AdapterConfig(variant=variant, r=4, activation=activation)


class TestFeAdapter:
    @pytest.mark.parametrize("variant", ["dw_conv3d", "d2_conv3d"])
    def test_zero_up_projection_is_bitwise_identity(self, variant):
        rng = np.random.default_rng(10)
        w = make_weights(rng, 16, 4)
        x = rng.normal(size=(2, 2 * 5, 16))
        out = fe_adapter(Tensor(x), w, _conv_cfg(variant), frames=2, grid_hw=(2, 2)).data
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("variant", ["dw_conv3d", "d2_conv3d"])
    def test_center_one_kernel_reduces_to_vanilla(self, variant):
        # with the identity tap and rates pinned at (or starting at) 1
        # the conv disappears and the output matches the plain adapter
        rng = np.random.default_rng(11)
        for trial in range(100):
            w = make_weights(rng, 8, 4, zero_up=False, fresh_head=True)
            kern = np.zeros((4, 3, 3, 3))
            kern[:, 1, 1, 1] = 1.0
            w.kernel = Tensor(kern)
            x = rng.normal(size=(1, 2 * 5, 8))
            got = fe_adapter(Tensor(x), w, _conv_cfg(variant), frames=2, grid_hw=(2, 2)).data
            want = vanilla_adapter(Tensor(x), w).data
            assert np.abs(got - want).max() < 1e-6

    def test_constant_in_time_clip_gives_constant_interior_frames(self):
        rng = np.random.default_rng(12)
        frames, gh, gw, hidden = 6, 2, 2, 8
        w = make_weights(rng, hidden, 4, zero_up=False)
        frame_tokens = rng.normal(size=(gh * gw + 1, hidden))
        x = np.tile(frame_tokens, (1, frames, 1))
        out = fe_adapter(Tensor(x), w, _conv_cfg("dw_conv3d"), frames=frames,
                         grid_hw=(gh, gw)).data
        per_frame = out.reshape(frames, gh * gw + 1, hidden)
        # interior frames see identical temporal stencils; the first and
        # last frame differ through the zero padding
        for t in range(2, frames - 1):
            np.testing.assert_allclose(per_frame[t], per_frame[1], atol=1e-12)

    def test_non_conv_variant_rejected(self):
        w = make_weights(np.random.default_rng(13), 8, 4)
        with pytest.raises(UsageError):
            fe_adapter(Tensor(np.zeros((5, 8))), w,
                       AdapterConfig(variant="none"), frames=1, grid_hw=(2, 2))
        with pytest.raises(UsageError):
            fe_adapter(Tensor(np.zeros((5, 8))), w,
                       AdapterConfig(variant="vanilla", r=4), frames=1, grid_hw=(2, 2))

    def test_locality_chebyshev_ball(self):
        # one perturbed patch token moves post-conv bottleneck values
        # only within Chebyshev distance d on the (T, h, w) lattice
        rng = np.random.default_rng(14)
        channels, frames, gh, gw = 2, 7, 7, 7
        kern = Tensor(rng.normal(size=(channels, 3, 3, 3)), dtype=np.float64)
        x = rng.normal(size=(1, channels, frames, gh, gw))
        for d in (1, 2):
            base = T.depthwise_conv3d(Tensor(x), kern, (float(d),) * 3).data
            bumped = x.copy()
            bumped[0, :, 3, 3, 3] += 1.0
            moved = T.depthwise_conv3d(Tensor(bumped), kern, (float(d),) * 3).data
            diff = np.abs(moved - base).max(axis=(0, 1))
            tt, hh, ww = np.nonzero(diff > 1e-12)
            cheb = np.maximum.reduce([np.abs(tt - 3), np.abs(hh - 3), np.abs(ww - 3)])
            assert cheb.max() <= d

    def test_class_tokens_unaffected_by_patch_values_linearized(self):
        # with f = identity the class-token rows depend only on the
        # projection path, never on the conv over patch tokens
        rng = np.random.default_rng(15)
        w = make_weights(rng, 8, 4, zero_up=False)
        frames, gh, gw = 2, 2, 2
        s = gh * gw + 1
        base = rng.normal(size=(frames * s, 8))
        varied = base.copy()
        mask = np.ones(frames * s, dtype=bool)
        mask[::s] = False  # every class token row
        varied[mask] = rng.normal(size=(mask.sum(), 8))
        cfg = _conv_cfg("dw_conv3d", activation="identity")
        out_a = fe_adapter(Tensor(base[None]), w, cfg, frames, (gh, gw)).data[0]
        out_b = fe_adapter(Tensor(varied[None]), w, cfg, frames, (gh, gw)).data[0]
        np.testing.assert_allclose(out_a[::s] - base[::s], out_b[::s] - varied[::s],
                                   atol=1e-12)

    def test_gradient_flow_reaches_every_adapter_parameter(self):
        cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                          heads=4, classes=3,
                          adapter=AdapterConfig(variant="d2_conv3d", r=6))
        m = VideoViT(cfg, seed=4, dtype=np.float64)
        rng = np.random.default_rng(16)
        for name, t in m.params.items():
            if ".adapter." in name or name.startswith("head."):
                t.data = rng.normal(0.0, 0.2, size=t.shape)
        clips = rng.normal(size=(2, 4, 3, 16, 16))
        loss = T.cross_entropy(m.forward(clips), np.array([0, 1]))
        loss.backward()
        for name, t in m.params.items():
            if ".adapter." in name:
                assert t.grad is not None, name
                assert (t.grad != 0).all(), f"zero gradient coordinates in {name}"


class TestParameterCounting:
    def test_linear_probe_head_only(self):
        cfg = ModelConfig(frames=16, height=224, width=224, patch=16, hidden=768,
                          depth=12, heads=12, classes=7)
        counts = count_tunable_params(cfg, mode="linear_probe")
        assert counts.trainable == 768 * 7 + 7 == 5383

    def test_vanilla_closed_form(self):
        cfg = ModelConfig(frames=16, height=224, width=224, patch=16, hidden=768,
                          depth=12, heads=12, classes=7,
                          adapter=AdapterConfig(variant="vanilla", r=64))
        counts = count_tunable_params(cfg, mode="adapter")
        adapters = sum(g["params"] for name, g in counts.groups.items()
                       if name.startswith("adapter."))
        assert adapters == 12 * (768 * 64 + 64 * 768 + 64 + 768)
        assert counts.trainable == adapters + 5383

    def test_full_mode_ratio_one(self):
        cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                          heads=4, classes=3,
                          adapter=AdapterConfig(variant="d2_conv3d", r=6))
        counts = count_tunable_params(cfg, mode="full")
        assert counts.trainable == counts.total
        assert counts.ratio == 1.0

    def test_trainable_count_strictly_increasing_in_r_and_blocks(self):
        def tunable(r, blocks):
            cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=32,
                              depth=4, heads=4, classes=3,
                              adapter=AdapterConfig(variant="d2_conv3d", r=r, blocks=blocks))
            return count_tunable_params(cfg, mode="adapter").trainable

        rs = [tunable(r, None) for r in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(rs, rs[1:]))
        subsets = [tunable(6, tuple(range(1, k + 1))) for k in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(subsets, subsets[1:]))

    def test_model_enumeration_agrees_with_config_layout(self):
        cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                          heads=4, classes=3,
                          adapter=AdapterConfig(variant="d2_conv3d", r=6))
        m = VideoViT(cfg, seed=0)
        for mode in ("full", "linear_probe", "adapter"):
            from_model = count_tunable_params(m, mode=mode)
            from_cfg = count_tunable_params(cfg, mode=mode)
            assert from_model.trainable == from_cfg.trainable
            assert from_model.total == from_cfg.total

    def test_counts_identical_across_positions(self):
        def total(position):
            cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=32,
                              depth=2, heads=4, classes=3,
                              adapter=AdapterConfig(variant="d2_conv3d", r=6,
                                                    position=position))
            return count_tunable_params(cfg, mode="adapter").trainable

        assert total("before_mhsa") == total("after_mhsa") == total("after_mlp")

    def test_empty_block_set_behaves_like_variant_none(self):
        base = dict(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                    heads=4, classes=3)
        plain = ModelConfig(**base)
        empty = ModelConfig(**base, adapter=AdapterConfig(variant="d2_conv3d", r=6,
                                                          blocks=()))
        assert not empty.adapter.active(empty.depth)
        for mode in ("full", "linear_probe"):
            assert (count_tunable_params(plain, mode).total
                    == count_tunable_params(empty, mode).total)
        clips = np.random.default_rng(20).normal(size=(2, 4, 3, 16, 16)).astype(np.float64)
        a = VideoViT(plain, seed=5, dtype=np.float64).forward(clips).data
        b = VideoViT(empty, seed=5, dtype=np.float64).forward(clips).data
        np.testing.assert_array_equal(a, b)

    def test_derived_default_width_for_reference_geometry(self):
        assert derive_bottleneck_width(768, 12, 7) == 350

    def test_per_block_closed_form(self):
        assert adapter_params_per_block(768, 350) == (
            768 * 350 + 350 + 350 * 768 + 768 + 350 * 27 + 350 * 3 + 3)
