"""Tensor-engine contracts: op semantics against independent oracles,
reverse-mode gradients against central differences."""

import math

import numpy as np
import pytest

from feadapter import Tensor, backward, depthwise_conv3d, finite_difference_gradient
from feadapter import tensor as T
from feadapter.errors import ConfigError, NonFiniteError, ShapeError, UsageError
from feadapter.tensor import trace_graph

from helpers import conv3d_oracle, gelu_oracle, grads_close, softmax_oracle, weighted_scalar


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2, dtype=np.float32)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_expansion(self):
        # [[1,2],[3,4]] @ [[5],[6]] = [[1*5+2*6],[3*5+4*6]]
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_inner_extent_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c = (Tensor(rng.normal(size=(4, 5)), dtype=np.float64),
                       Tensor(rng.normal(size=(5, 3)), dtype=np.float64),
                       Tensor(rng.normal(size=(3, 6)), dtype=np.float64))
            left = T.matmul(T.matmul(a, b), c).data
            right = T.matmul(a, T.matmul(b, c)).data
            assert np.abs(left - right).max() / np.abs(left).max() < 1e-9

    def test_gradient_rule(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), dtype=np.float64, requires_grad=True)
        grads_close(lambda: weighted_scalar(T.matmul(a, b)), [a, b])

    def test_batched_broadcast_gradient(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), dtype=np.float64, requires_grad=True)
        grads_close(lambda: weighted_scalar(T.matmul(a, b)), [a, b])


class TestSoftmax:
    def test_uniform_logits(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_large_logit_stable(self):
        out = T.softmax_lastdim(Tensor([1000.0, 0.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=5)
        out = T.softmax_lastdim(Tensor(row, dtype=np.float64))
        assert np.abs(out.data - softmax_oracle(row)).max() < 1e-12

    def test_rows_sum_to_one_in_open_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = Tensor(rng.normal(scale=5.0, size=(3, 7)))
            y = T.softmax_lastdim(x).data
            assert ((y > 0) & (y < 1)).all()
            np.testing.assert_allclose(y.sum(-1), 1.0, atol=1e-6)

    def test_empty_last_dim_rejected(self):
        with pytest.raises(ShapeError):
            T.softmax_lastdim(Tensor(np.ones((2, 0))))


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_zero_gamma_gives_beta(self):
        beta = np.array([1.0, -2.0, 0.5])
        out = T.layer_norm(Tensor([[3.0, 1.0, -7.0], [0.0, 2.0, 4.0]]),
                           Tensor(np.zeros(3)), Tensor(beta))
        np.testing.assert_array_equal(out.data, np.tile(beta, (2, 1)))

    def test_moments(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(64,)), dtype=np.float64)
        y = T.layer_norm(x, Tensor(np.ones(64)), Tensor(np.zeros(64)), eps=1e-5).data
        assert abs(y.mean()) < 1e-6
        assert abs(y.var() - 1.0) < 1e-4

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            T.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_saturation(self):
        assert abs(T.gelu(Tensor([10.0], dtype=np.float64)).data[0] - 10.0) < 1e-6

    def test_against_erf_oracle(self):
        out = T.gelu(Tensor([1.0], dtype=np.float64)).data[0]
        assert abs(out - gelu_oracle([1.0])[0]) < 1e-7


class TestConv3d:
    def test_center_one_kernel_is_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 4, 5, 5)).astype(np.float32)
        kern = np.zeros((2, 3, 3, 3), dtype=np.float32)
        kern[:, 1, 1, 1] = 1.0
        out = depthwise_conv3d(Tensor(x), Tensor(kern), (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(out.data, x)

    def test_impulse_integer_dilation_lattice(self):
        # a unit impulse with a ones kernel at dilation 2 lights up the
        # 27 lattice sites at offsets in {-2, 0, 2}^3, nothing else
        x = np.zeros((1, 1, 5, 5, 5), dtype=np.float64)
        x[0, 0, 2, 2, 2] = 1.0
        kern = np.ones((1, 3, 3, 3), dtype=np.float64)
        out = depthwise_conv3d(Tensor(x), Tensor(kern), (2.0, 2.0, 2.0)).data
        expected = np.zeros_like(x)
        for dt in (-2, 0, 2):
            for dh in (-2, 0, 2):
                for dw in (-2, 0, 2):
                    expected[0, 0, 2 + dt, 2 + dh, 2 + dw] = 1.0
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(out[0], conv3d_oracle(x[0], kern, (2.0, 2.0, 2.0)))

    def test_impulse_fractional_dilation_trilinear_weights(self):
        # temporal offsets at +-1.5 split the impulse response between
        # the two surrounding frames with weight 1/2 each; total mass
        # matches the integer-dilation response
        x = np.zeros((1, 1, 7, 3, 3), dtype=np.float64)
        x[0, 0, 3, 1, 1] = 1.0
        kern = np.zeros((1, 3, 1, 1), dtype=np.float64)
        kern[0, :, 0, 0] = 1.0
        out = depthwise_conv3d(Tensor(x), Tensor(kern), (1.5, 1.0, 1.0)).data
        # output position t sees the impulse when 3 = t + a*1.5 for tap
        # offsets a in {-1, 0, +1}: t=3 exactly (center tap), and the
        # fractional taps contribute 0.5 at t in {1, 2} and {4, 5}
        expected = np.zeros_like(x)
        expected[0, 0, 3, 1, 1] = 1.0
        expected[0, 0, 1, 1, 1] = expected[0, 0, 2, 1, 1] = 0.5
        expected[0, 0, 4, 1, 1] = expected[0, 0, 5, 1, 1] = 0.5
        np.testing.assert_allclose(out, expected, atol=1e-12)
        integer_mass = depthwise_conv3d(Tensor(x), Tensor(kern), (1.0, 1.0, 1.0)).data.sum()
        assert abs(out.sum() - integer_mass) < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 4, 4, 4))
        kern = rng.normal(size=(2, 3, 3, 3))
        for rates in [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.3, 1.7, 2.4), (1.0, 2.9, 1.1)]:
            out = depthwise_conv3d(Tensor(x, dtype=np.float64),
                                   Tensor(kern, dtype=np.float64), rates).data
            np.testing.assert_allclose(out[0], conv3d_oracle(x[0], kern, rates), atol=1e-12)

    def test_per_clip_rates_non_cubic_kernel_and_lattice_match_oracle(self):
        # every axis has its own extent and kernel extent (kH = 1 leaves
        # H unsampled), and each clip its own rates, one of them integer
        rng = np.random.default_rng(19)
        x = rng.normal(size=(3, 2, 5, 4, 6))
        kern = rng.normal(size=(2, 3, 1, 5))
        rates = np.array([[1.0, 1.0, 1.0], [1.37, 2.0, 1.81], [2.6, 1.24, 2.0]])
        out = depthwise_conv3d(Tensor(x, dtype=np.float64), Tensor(kern, dtype=np.float64),
                               Tensor(rates, dtype=np.float64)).data
        for clip in range(3):
            np.testing.assert_allclose(out[clip], conv3d_oracle(x[clip], kern, rates[clip]),
                                       atol=1e-12)

    def test_fractional_path_continuous_at_integer(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 1, 5, 5, 5)), dtype=np.float64)
        kern = Tensor(rng.normal(size=(1, 3, 3, 3)), dtype=np.float64)
        exact = depthwise_conv3d(x, kern, (2.0, 2.0, 2.0)).data
        above = depthwise_conv3d(x, kern, (2.0 + 1e-9, 2.0, 2.0 + 1e-9)).data
        below = depthwise_conv3d(x, kern, (2.0 - 1e-9, 2.0 - 1e-9, 2.0)).data
        assert np.abs(exact - above).max() < 1e-6
        assert np.abs(exact - below).max() < 1e-6
        np.testing.assert_allclose(exact[0], conv3d_oracle(x.data[0], kern.data, (2, 2, 2)),
                                   atol=1e-12)

    @pytest.mark.parametrize("rate", [1.0, 2.0, 1.37, 2.64])
    def test_axis_matrix_derivative_is_right_difference(self, rate):
        # dM/dd must be the one-sided slope toward larger rates, also at
        # the kinks an integer rate puts on every off-center tap
        h = 1e-7
        rates = np.array([rate, rate + 0.5])
        mats, deriv = T._axis_matrices(rates, 6, 5, np.float64, True)
        moved, none = T._axis_matrices(rates + h, 6, 5, np.float64, False)
        assert none is None
        np.testing.assert_array_equal(mats, T._axis_matrices(rates, 6, 5, np.float64, False)[0])
        np.testing.assert_allclose(deriv, (moved - mats) / h, atol=1e-6)

    def test_even_kernel_extent_rejected(self):
        with pytest.raises(ConfigError):
            depthwise_conv3d(Tensor(np.ones((1, 1, 4, 4, 4))), Tensor(np.ones((1, 2, 3, 3))))

    def test_dilation_below_one_rejected(self):
        with pytest.raises(ValueError, match="dilation rates must be >= 1"):
            depthwise_conv3d(Tensor(np.ones((1, 1, 4, 4, 4))), Tensor(np.ones((1, 3, 3, 3))),
                             (0.5, 1.0, 1.0))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel mismatch"):
            depthwise_conv3d(Tensor(np.ones((1, 2, 4, 4, 4))), Tensor(np.ones((3, 3, 3, 3))))

    def test_unbatched_input_and_shared_rate_tensor_rejected(self):
        with pytest.raises(ShapeError, match=r"\(B, C, T, H, W\)"):
            depthwise_conv3d(Tensor(np.ones((1, 4, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))
        with pytest.raises(ShapeError, match=r"\(2, 3\) rates"):
            depthwise_conv3d(Tensor(np.ones((2, 1, 4, 4, 4))), Tensor(np.ones((1, 3, 3, 3))),
                             Tensor([1.5, 1.0, 1.0]))

    def test_gradients_input_and_kernel(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(1, 2, 3, 4, 4)), dtype=np.float64, requires_grad=True)
        kern = Tensor(rng.normal(size=(2, 3, 3, 3)), dtype=np.float64, requires_grad=True)
        grads_close(lambda: weighted_scalar(depthwise_conv3d(x, kern, (1.4, 1.0, 2.2))), [x, kern])

    def test_gradients_shared_tensor_rates(self):
        # one rate triple broadcast to every clip collects the clips'
        # summed rate gradients
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 1, 4, 4, 4)), dtype=np.float64, requires_grad=True)
        kern = Tensor(rng.normal(size=(1, 3, 3, 3)), dtype=np.float64, requires_grad=True)
        rates = Tensor([1.37, 1.81, 1.24], dtype=np.float64, requires_grad=True)
        grads_close(lambda: weighted_scalar(depthwise_conv3d(
            x, kern, T.broadcast_to(T.reshape(rates, (1, 3)), (2, 3)))), [x, kern, rates])

    def test_gradients_per_clip_rates(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 2, 4, 3, 3)), dtype=np.float64, requires_grad=True)
        kern = Tensor(rng.normal(size=(2, 3, 3, 3)), dtype=np.float64, requires_grad=True)
        rates = Tensor([[1.21, 1.66, 1.05], [2.13, 1.11, 1.48]], dtype=np.float64,
                       requires_grad=True)
        grads_close(lambda: weighted_scalar(depthwise_conv3d(x, kern, rates)), [x, kern, rates])

    def test_gradients_per_clip_rates_non_cubic_kernel_and_lattice(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(2, 2, 5, 3, 4)), dtype=np.float64, requires_grad=True)
        kern = Tensor(rng.normal(size=(2, 3, 1, 5)), dtype=np.float64, requires_grad=True)
        rates = Tensor([[1.33, 1.72, 1.18], [2.41, 1.09, 1.57]], dtype=np.float64,
                       requires_grad=True)
        grads_close(lambda: weighted_scalar(depthwise_conv3d(x, kern, rates)), [x, kern, rates])


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_two_layer_mlp_against_finite_differences(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        w1 = Tensor(rng.normal(size=(4, 5)), dtype=np.float64, requires_grad=True)
        b1 = Tensor(rng.normal(size=(5,)), dtype=np.float64, requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 2)), dtype=np.float64, requires_grad=True)
        b2 = Tensor(rng.normal(size=(2,)), dtype=np.float64, requires_grad=True)

        def loss():
            h = T.gelu(T.matmul(x, w1) + b1)
            return weighted_scalar(T.matmul(h, w2) + b2)

        grads_close(loss, [w1, b1, w2, b2])

    def test_detached_leaf_gets_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=False)
        (x * y).sum().backward()
        assert x.grad is not None
        assert y.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            backward(x * x)

    def test_gradients_accumulate_across_backward_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_trace_graph_topological(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + x
        loss = z.sum()
        order = trace_graph(loss)
        pos = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in node._parents:
                if parent.requires_grad:
                    assert pos[id(parent)] < pos[id(node)]

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        loss = (x * x + x * 2.0).sum()  # d/dx = 2x + 2
        loss.backward()
        np.testing.assert_allclose(x.grad, [8.0])


class TestFiniteDifferenceOracle:
    def test_sum_gives_ones(self):
        p = Tensor([4.0, -2.0, 7.0], dtype=np.float64)
        g = finite_difference_gradient(lambda t: t.sum(), p)
        np.testing.assert_allclose(g.data, np.ones(3), atol=1e-9)

    def test_product_rule(self):
        p = Tensor([3.0, 5.0], dtype=np.float64)
        g = finite_difference_gradient(lambda t: (t[0] * t[1]).sum(), p, eps=1e-5)
        np.testing.assert_allclose(g.data, [5.0, 3.0], atol=1e-6)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: t.sum(), Tensor([1.0]), eps=0.0)


def _random_shape(rng):
    ndim = int(rng.integers(1, 5))
    return tuple(int(rng.integers(1, 7)) for _ in range(ndim))


class TestOpGradientProperties:
    """Every differentiable op agrees with central differences on
    random small shapes (up to 4 axes of extent up to 6), in float64."""

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(13)
        unary = {
            "gelu": T.gelu,
            "relu": T.relu,
            "softplus": T.softplus,
            "neg": T.neg,
            "sum": lambda t: t.sum(),
            "mean": lambda t: t.mean(),
            "softmax": T.softmax_lastdim,
        }
        for name, op in unary.items():
            for _ in range(3):
                vals = rng.normal(size=_random_shape(rng))
                if name == "relu":
                    vals = vals + np.sign(vals) * 1e-2  # keep clear of the kink
                x = Tensor(vals, dtype=np.float64, requires_grad=True)
                grads_close(lambda op=op, x=x: weighted_scalar(op(x)), [x])

    def test_binary_broadcasting(self):
        rng = np.random.default_rng(14)
        for op in (T.add, T.sub, T.mul):
            a = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
            b = Tensor(rng.normal(size=(3, 1)), dtype=np.float64, requires_grad=True)
            grads_close(lambda op=op, a=a, b=b: weighted_scalar(op(a, b)), [a, b])

    def test_shape_ops(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
        cases = [
            lambda: weighted_scalar(T.reshape(x, (6, 4))),
            lambda: weighted_scalar(T.transpose(x, (2, 0, 1))),
            lambda: weighted_scalar(x[:, 1:, ::2]),
            lambda: weighted_scalar(T.concat([x, x], axis=1)),
            lambda: weighted_scalar(T.broadcast_to(T.reshape(x, (2, 3, 4, 1)), (2, 3, 4, 5))),
            lambda: weighted_scalar(x.sum(axis=(0, 2))),
            lambda: weighted_scalar(x.mean(axis=1, keepdims=True)),
            lambda: weighted_scalar(T.moveaxis(x, 0, 2)),
        ]
        for case in cases:
            grads_close(case, [x])

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(3, 5)), dtype=np.float64, requires_grad=True)
        gamma = Tensor(rng.normal(size=(5,)), dtype=np.float64, requires_grad=True)
        beta = Tensor(rng.normal(size=(5,)), dtype=np.float64, requires_grad=True)
        grads_close(lambda: weighted_scalar(T.layer_norm(x, gamma, beta)), [x, gamma, beta])

    def test_cross_entropy_gradients(self):
        rng = np.random.default_rng(17)
        logits = Tensor(rng.normal(size=(4, 3)), dtype=np.float64, requires_grad=True)
        labels = np.array([0, 2, 1, 2])
        grads_close(lambda: T.cross_entropy(logits, labels), [logits])


@pytest.mark.slow
class TestFullModelGradients:
    def test_every_parameter_group_matches_finite_differences(self):
        # micro geometry keeps the coordinate count small enough to
        # difference every parameter, backbone included (full mode)
        from feadapter import VideoViT, synth_dataset
        from feadapter.config import AdapterConfig, ModelConfig
        from feadapter.gradcheck import gradcheck_model, randomize_trainable
        from feadapter.training import apply_freeze

        cfg = ModelConfig(frames=2, height=8, width=8, patch=4, hidden=8, depth=1,
                          heads=2, classes=2,
                          adapter=AdapterConfig(variant="d2_conv3d", r=2))
        model = VideoViT(cfg, seed=23, dtype=np.float64)
        apply_freeze(model, "full")
        randomize_trainable(model, 23)
        data = synth_dataset(23, 2, 1, 2, 8, 8)
        errors = gradcheck_model(model, data.clips.astype(np.float64), data.labels)
        assert set(errors) == {"backbone", "adapter.block1", "dilation.block1", "classifier"}
        assert max(errors.values()) < 1e-4, errors


class TestCrossEntropy:
    def test_uniform_logits_log_classes(self):
        loss = T.cross_entropy(Tensor(np.zeros((2, 5))), np.array([1, 3]))
        assert abs(float(loss.data) - math.log(5)) < 1e-6

    def test_large_logits_stable(self):
        loss = T.cross_entropy(Tensor([[1000.0, 0.0], [0.0, 1000.0]]), np.array([0, 1]))
        assert float(loss.data) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(UsageError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestDeterminismAndGuards:
    def test_ops_bitwise_deterministic(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(1, 2, 3, 4, 4)).astype(np.float32)
        k = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        a = depthwise_conv3d(Tensor(x), Tensor(k), (1.5, 1.2, 1.0)).data
        b = depthwise_conv3d(Tensor(x), Tensor(k), (1.5, 1.2, 1.0)).data
        np.testing.assert_array_equal(a, b)
        m1 = T.matmul(Tensor(x.reshape(6, 16)), Tensor(x.reshape(16, 6))).data
        m2 = T.matmul(Tensor(x.reshape(6, 16)), Tensor(x.reshape(16, 6))).data
        np.testing.assert_array_equal(m1, m2)

    def test_overflow_raises_instead_of_propagating(self):
        big = Tensor(np.array([1e300], dtype=np.float64))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            T.mul(big, big)

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan, 1.0])


def _tracked_ops(rng):
    """Ops applied to gradient-tracked float64 inputs, including the conv
    with per-clip rates that require grad (the d2_conv3d path)."""
    def leaf(*shape, low=None):
        arr = rng.normal(size=shape) if low is None else low + rng.random(shape)
        return Tensor(arr, dtype=np.float64, requires_grad=True)

    x, y, z, w = leaf(2, 3, 4), leaf(4), leaf(4), leaf(4, 5)
    grid, kern, rates = leaf(2, 2, 3, 4, 4), leaf(2, 3, 3, 3), leaf(2, 3, low=1.0)
    return {
        "add": lambda: x + y, "sub": lambda: x - y, "mul": lambda: x * y,
        "matmul": lambda: T.matmul(x, w),
        "layer_norm": lambda: T.layer_norm(x, y, z),
        "gelu": lambda: T.gelu(x), "softmax": lambda: T.softmax_lastdim(x),
        "concat": lambda: T.concat([x, x * 2.0], axis=1),
        "cross_entropy": lambda: T.cross_entropy(x[0], np.array([0, 1, 3])),
        "depthwise_conv3d": lambda: depthwise_conv3d(grid, kern, rates),
    }


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        for name, op in _tracked_ops(np.random.default_rng(40)).items():
            with T.no_grad():
                out = op()
            assert out._parents == () and out._vjp is None, name
            assert not out.requires_grad, name

    def test_outputs_bitwise_equal_to_grad_mode(self):
        for name, op in _tracked_ops(np.random.default_rng(41)).items():
            tracked = op()
            assert tracked.requires_grad, name
            with T.no_grad():
                plain = op()
            np.testing.assert_array_equal(plain.data, tracked.data, err_msg=name)

    def test_conv_builds_rate_derivatives_only_in_grad_mode(self, monkeypatch):
        built = []
        real = T._axis_matrices

        def spy(rates, n, extent, dtype, with_deriv):
            built.append(with_deriv)
            return real(rates, n, extent, dtype, with_deriv)

        monkeypatch.setattr(T, "_axis_matrices", spy)
        conv = _tracked_ops(np.random.default_rng(43))["depthwise_conv3d"]
        with T.no_grad():
            conv()
        conv()
        assert built == [False] * 3 + [True] * 3

    def test_mode_restored_after_nesting_and_exception(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).requires_grad
        with pytest.raises(KeyError), T.no_grad():
            raise KeyError("inside")
        assert (x * x).requires_grad

    def test_first_non_finite_value_still_raises(self):
        big = Tensor(np.array([1e300], dtype=np.float64), requires_grad=True)
        with np.errstate(over="ignore"), T.no_grad(), pytest.raises(NonFiniteError, match="mul"):
            T.mul(big, big)


def _pruned_ops(rng):
    """Multi-operand ops with float64 operand arrays; the VJP of each
    must skip every operand that is not gradient-tracked."""
    def arr(*shape):
        return rng.normal(size=shape)

    return {
        "add": (T.add, [arr(3, 4), arr(4)]),
        "sub": (T.sub, [arr(3, 4), arr(3, 1)]),
        "mul": (T.mul, [arr(3, 4), arr(4)]),
        "matmul": (T.matmul, [arr(2, 3, 4), arr(4, 5)]),
        "concat": (lambda a, b: T.concat([a, b], axis=1), [arr(3, 2), arr(3, 4)]),
        "layer_norm": (T.layer_norm, [arr(2, 3, 5), arr(5), arr(5)]),
        "depthwise_conv3d": (depthwise_conv3d,
                             [arr(2, 2, 3, 4, 4), arr(2, 3, 3, 3), 1.0 + rng.random((2, 3))]),
    }


class TestPrunedVjp:
    @pytest.mark.parametrize("op", sorted(_pruned_ops(np.random.default_rng(0))))
    def test_tracked_gradient_independent_of_other_operands(self, op):
        fn, arrays = _pruned_ops(np.random.default_rng(42))[op]
        for i in range(len(arrays)):
            grads = []
            for others_tracked in (True, False):
                ts = [Tensor(a, dtype=np.float64, requires_grad=others_tracked or j == i)
                      for j, a in enumerate(arrays)]
                out = fn(*ts)
                pieces = out._vjp(np.ones_like(out.data))
                for t, piece in zip(ts, pieces):
                    assert (piece is None) == (not t.requires_grad), (op, i)
                weighted_scalar(out).backward()
                for j, t in enumerate(ts):
                    assert (t.grad is None) == (not t.requires_grad), (op, i, j)
                grads.append(ts[i].grad)
            np.testing.assert_array_equal(grads[0], grads[1], err_msg=f"{op} operand {i}")
