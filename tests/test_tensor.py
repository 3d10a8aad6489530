"""Tensor-engine contracts: op semantics against independent oracles,
reverse-mode gradients against central differences."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.special import erf

from feadapter import Tensor, backward, depthwise_conv3d, finite_difference_gradient
from feadapter import tensor as T
from feadapter.errors import ConfigError, NonFiniteError, ShapeError, UsageError
from feadapter.tensor import trace_graph

from helpers import (conv3d_oracle, gelu_oracle, grads_close, graph_arrays, graph_bytes,
                     softmax_oracle, traced_peak, vjp_arrays, vjp_cells, weighted_scalar)


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
        c = Tensor(rng.normal(size=(5,)), dtype=np.float64, requires_grad=True)
        grads_close(lambda: weighted_scalar(T.matmul(a, b)), [a, b])
        grads_close(lambda: weighted_scalar(T.matmul(a, b, c)), [a, b, c])

    @pytest.mark.parametrize("bias_tracked", [True, False], ids=["tracked-bias", "frozen-bias"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_form_is_bitwise_matmul_then_add(self, dtype, bias_tracked):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))]
        results = []
        for fused in (True, False):
            a, b, c = (Tensor(arr, dtype=dtype, requires_grad=i < 2 or bias_tracked)
                       for i, arr in enumerate(arrays))
            out = T.matmul(a, b, c) if fused else T.matmul(a, b) + c
            weighted_scalar(out).backward()
            results.append([out.data, a.grad, b.grad, c.grad])
        fused, plain = results
        assert fused[0].dtype == dtype and (fused[3] is None) == (not bias_tracked)
        for got, want, what in zip(fused, plain, ("output", "a.grad", "b.grad", "bias.grad")):
            if want is None:
                assert got is None, what
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), what

    def test_bias_that_does_not_fit_the_product_rejected(self):
        a, b = Tensor(np.ones((3, 4)), dtype=np.float32), Tensor(np.ones((4, 5)), dtype=np.float32)
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(a, b, Tensor(np.ones((2, 3, 5))))
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(a, b, Tensor(np.ones(5), dtype=np.float64))


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
        T.sum_axis(x * x).backward()
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
        T.sum_axis(x * y).backward()
        assert x.grad is not None
        assert y.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            backward(x * x)

    def test_gradients_accumulate_across_backward_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.sum_axis(x * x).backward()
        first = x.grad.copy()
        T.sum_axis(x * x).backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_trace_graph_topological(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + x
        loss = T.sum_axis(z)
        order = trace_graph(loss)
        pos = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in node._parents:
                if parent.requires_grad:
                    assert pos[id(parent)] < pos[id(node)]

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        loss = T.sum_axis(x * x + x * 2.0)  # d/dx = 2x + 2
        loss.backward()
        np.testing.assert_allclose(x.grad, [8.0])


class TestFiniteDifferenceOracle:
    def test_sum_gives_ones(self):
        p = Tensor([4.0, -2.0, 7.0], dtype=np.float64)
        g = finite_difference_gradient(T.sum_axis, p)
        np.testing.assert_allclose(g.data, np.ones(3), atol=1e-9)

    def test_product_rule(self):
        p = Tensor([3.0, 5.0], dtype=np.float64)
        g = finite_difference_gradient(lambda t: T.sum_axis(t[0] * t[1]), p, eps=1e-5)
        np.testing.assert_allclose(g.data, [5.0, 3.0], atol=1e-6)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(T.sum_axis, Tensor([1.0]), eps=0.0)


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
            "sum": T.sum_axis,
            "mean": T.mean_axis,
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
            lambda: weighted_scalar(T.sum_axis(x, axis=(0, 2))),
            lambda: weighted_scalar(T.mean_axis(x, axis=1, keepdims=True)),
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


class TestGetitem:
    @pytest.mark.parametrize("key", [1, (slice(None), 2), (Ellipsis, 0), (None, 1, slice(1, 4)),
                                     np.int64(1)],
                             ids=["int", "slice-int", "ellipsis", "none", "np-int"])
    def test_gradient_is_the_scatter_add_into_zeros(self, key):
        # bitwise np.add.at, signed zeros included: repeated indices add up
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = x[key]
        g = np.random.default_rng(7).normal(size=out.shape).astype(np.float32)
        g[g > 0.5] = -0.0
        expected = np.zeros_like(x.data)
        np.add.at(expected, key, g)
        (grad,) = out._vjp(g)
        assert grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("key", [([0, 0, 1],), (slice(None), [2, 2, 0]), True,
                                     np.arange(24.0).reshape(2, 3, 4) > 10, np.array([1, 0])],
                             ids=["repeated-rows", "repeated-cols", "bool", "bool-mask",
                                  "int-array"])
    def test_advanced_key_is_a_usage_error(self, key):
        # an advanced key can repeat an index, whose gradient the VJP's
        # buf[key] += g would drop, so the forward refuses it
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        with pytest.raises(UsageError, match="getitem takes ints, slices"):
            x[key]
        with T.no_grad(), pytest.raises(UsageError, match="getitem takes ints, slices"):
            x[key]


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


class TestGradcheckModel:
    def test_weights_restored_when_a_loss_evaluation_raises(self, monkeypatch):
        # the oracle perturbs a copy that gradcheck_model swaps into the
        # model; an error part-way must still leave the model's own arrays
        from feadapter import VideoViT, synth_dataset
        from feadapter.config import AdapterConfig, ModelConfig
        from feadapter.gradcheck import gradcheck_model, randomize_trainable
        from feadapter.training import apply_freeze

        cfg = ModelConfig(frames=2, height=8, width=8, patch=4, hidden=8, depth=1,
                          heads=2, classes=2, adapter=AdapterConfig(variant="vanilla", r=2))
        model = VideoViT(cfg, seed=3, dtype=np.float64)
        apply_freeze(model, "adapter")
        randomize_trainable(model, 3)
        data = synth_dataset(3, 2, 1, 2, 8, 8)
        before = {name: t.data for name, t in model.params.items()}
        copies = {name: t.data.copy() for name, t in model.params.items()}
        real, calls = T.cross_entropy, []

        def failing(logits, labels):
            calls.append(1)
            if len(calls) == 4:  # the backward pass, one coordinate, then mid-coordinate
                raise NonFiniteError("injected")
            return real(logits, labels)
        monkeypatch.setattr(T, "cross_entropy", failing)
        with pytest.raises(NonFiniteError, match="injected"):
            gradcheck_model(model, data.clips.astype(np.float64), data.labels)
        for name, t in model.params.items():
            assert t.data is before[name]
            np.testing.assert_array_equal(t.data, copies[name])


    @staticmethod
    def full_forward_errors(model, clips, labels, eps=1e-5):
        """The loop gradcheck_model replaced: every loss evaluation runs
        the whole model from the clips, through the same oracle."""
        from feadapter.config import parameter_layout
        from feadapter.gradcheck import max_relative_error

        model.zero_grad()
        T.cross_entropy(model.forward(clips), labels).backward()
        groups = {spec.name: spec.group for spec in parameter_layout(model.cfg)}
        worst = {}
        for name in sorted(model.params):
            p = model.params[name]
            if not p.requires_grad:
                continue
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)

            def loss(values, p=p):
                p.data = values.data
                with T.no_grad():
                    return float(T.cross_entropy(model.forward(clips), labels).data)
            saved = p.data
            try:
                numeric = finite_difference_gradient(loss, p, eps).data
            finally:
                p.data = saved
            err = max_relative_error(analytic, numeric)
            worst[groups[name]] = max(worst.get(groups[name], 0.0), err)
        model.zero_grad()
        return worst

    @pytest.mark.parametrize("mode, depth, adapter", [
        ("adapter", 2, dict(variant="d2_conv3d")),
        pytest.param("full", 1, dict(variant="d2_conv3d"),  # the embedding is trainable
                     marks=pytest.mark.slow),
        ("adapter", 3, dict(variant="dw_conv3d", blocks=(2, 3), position="after_mlp")),
        ("linear_probe", 2, dict(variant="none")),
    ], ids=["d2-depth2", "full-depth1", "dw-after-mlp-blocks-2-3", "linear-probe-depth2"])
    def test_errors_equal_full_forward_differences(self, mode, depth, adapter):
        # differences started from a cached block prefix must give the
        # whole-model loop's errors bit for bit
        from feadapter import VideoViT, synth_dataset
        from feadapter.config import AdapterConfig, ModelConfig
        from feadapter.gradcheck import gradcheck_model, randomize_trainable
        from feadapter.training import apply_freeze

        cfg = ModelConfig(frames=2, height=8, width=8, patch=4, hidden=8, depth=depth,
                          heads=2, classes=2, adapter=AdapterConfig(r=2, **adapter))
        model = VideoViT(cfg, seed=5, dtype=np.float64)
        apply_freeze(model, mode)
        randomize_trainable(model, 5)
        data = synth_dataset(5, 2, 1, 2, 8, 8)
        clips = data.clips.astype(np.float64)
        errors = gradcheck_model(model, clips, data.labels)
        reference = self.full_forward_errors(model, clips, data.labels)
        assert {g: e.hex() for g, e in errors.items()} == {g: e.hex() for g, e in reference.items()}


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


def _tracked_ops(rng, tracked=True):
    """Ops applied to gradient-tracked float64 inputs, including the conv
    with per-clip rates that require grad (the d2_conv3d path); with
    ``tracked=False``, the same ops on inputs that take no gradient."""
    def leaf(*shape, low=None):
        arr = rng.normal(size=shape) if low is None else low + rng.random(shape)
        return Tensor(arr, dtype=np.float64, requires_grad=tracked)

    x, y, z, w, c = leaf(2, 3, 4), leaf(4), leaf(4), leaf(4, 5), leaf(5)
    grid, kern, rates = leaf(2, 2, 3, 4, 4), leaf(2, 3, 3, 3), leaf(2, 3, low=1.0)
    return {
        "add": lambda: x + y, "sub": lambda: T.sub(x, y), "mul": lambda: x * y,
        "neg": lambda: T.neg(x), "matmul": lambda: T.matmul(x, w),
        "matmul_bias": lambda: T.matmul(x, w, c),
        "reshape": lambda: T.reshape(x, (6, 4)), "transpose": lambda: T.transpose(x, (2, 0, 1)),
        "getitem": lambda: x[:, 1], "broadcast_to": lambda: T.broadcast_to(y, (3, 4)),
        "sum": lambda: T.sum_axis(x, axis=1), "mean": lambda: T.mean_axis(x, axis=(0, 2)),
        "layer_norm": lambda: T.layer_norm(x, y, z),
        "gelu": lambda: T.gelu(x), "relu": lambda: T.relu(x), "softplus": lambda: T.softplus(x),
        "softmax": lambda: T.softmax_lastdim(x),
        "concat": lambda: T.concat([x, x * 2.0], axis=1),
        "cross_entropy": lambda: T.cross_entropy(x[0], np.array([0, 1, 3])),
        "depthwise_conv3d": lambda: depthwise_conv3d(grid, kern, rates),
    }


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        for name, op in _tracked_ops(np.random.default_rng(40)).items():
            with T.no_grad():
                out = op()
            assert out._node is None, name
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

    def test_untracked_results_build_no_vjp(self, monkeypatch):
        vjps = []
        real = T._result

        def spy(data, parents, vjp, op):
            vjps.append((op, vjp))
            return real(data, parents, vjp, op)

        monkeypatch.setattr(T, "_result", spy)
        for tracked in (True, False):
            ops = _tracked_ops(np.random.default_rng(44), tracked=tracked)
            for name, op in ops.items():
                vjps.clear()
                if tracked:
                    with T.no_grad():
                        op()
                else:
                    op()
                assert vjps and all(vjp is None for _, vjp in vjps), (name, tracked, vjps)

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


# 1 Mi float32 elements, past the size that _guard_finite slices
_LARGE = 1 << 20
_LAYOUTS = ("c_order", "transposed", "permuted", "strided")


def _large_layouts(poison=None):
    """One large float32 array per memory layout: C order, a transpose
    (F order), an axis permutation, and a strided slice, which has no
    flat view. ``poison = (k, value)`` puts ``value`` at the k-th
    element in memory order (k may be negative)."""
    rng = np.random.default_rng(47)
    flat = rng.normal(size=_LARGE).astype(np.float32)
    wide = rng.normal(size=(1024, 2048)).astype(np.float32)
    if poison is not None:
        k, value = poison
        flat[k] = value
        row, col = divmod(k % _LARGE, 1024)
        wide[row, 2 * col] = value
    return {
        "c_order": flat.reshape(1024, 1024),
        "transposed": flat.reshape(1024, 1024).T,
        "permuted": flat.reshape(64, 16, 1024).transpose(1, 2, 0),
        "strided": wide[:, ::2],
    }


class TestForwardOnlyPeak:
    """An untracked op allocates no array that nobody reads again, and
    the finite check stays whole."""

    def test_untracked_gelu_writes_into_its_own_buffer(self):
        x = Tensor(_large_layouts()["c_order"])
        out = []
        peak = traced_peak(lambda: out.append(T.gelu(x)))
        assert peak <= 1.3 * x.data.nbytes
        tracked = T.gelu(Tensor(x.data, requires_grad=True))
        np.testing.assert_array_equal(out[0].data, tracked.data)

    @pytest.mark.parametrize("layout", _LAYOUTS[:3])
    def test_large_finite_check_allocates_one_slice(self, layout):
        arr = _large_layouts()[layout]
        assert traced_peak(lambda: T._guard_finite(arr, "probe")) <= arr.nbytes / 32

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("poison", [(0, -np.inf), (-1, np.nan), (-1, np.inf),
                                        (_LARGE // 2 + 3, np.nan)],
                             ids=["first_neg_inf", "last_nan", "last_inf", "middle_nan"])
    def test_non_finite_value_in_any_slice_raises(self, layout, poison):
        with pytest.raises(NonFiniteError, match="probe"):
            T._guard_finite(_large_layouts(poison)[layout], "probe")

    def test_overflow_in_the_last_slice_of_a_transposed_output_raises(self):
        a = np.ones((1024, 1024), dtype=np.float32)
        a[-1, -1] = 1e30
        x = Tensor(a.T)
        with np.errstate(over="ignore"), T.no_grad(), pytest.raises(NonFiniteError, match="mul"):
            T.mul(x, x)

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_large_values_near_the_float32_max_pass(self, layout):
        arr = _large_layouts()[layout]
        arr *= np.float32(0.99 * np.finfo(np.float32).max) / np.abs(arr).max()
        T._guard_finite(arr, "probe")


class TestSavedArrays:
    """A VJP keeps arrays, never tensors, and only the arrays its rule
    reads, so the forward's other arrays are freed with their tensors."""

    def test_vjps_close_over_no_tensor(self):
        def holds_tensor(obj):
            return isinstance(obj, Tensor) or (
                isinstance(obj, (list, tuple)) and any(map(holds_tensor, obj)))

        held = {}
        for name, op in _tracked_ops(np.random.default_rng(45)).items():
            cells = vjp_cells(op()._vjp)
            held[name] = [var for var, obj in cells.items() if holds_tensor(obj)]
        assert {name: vars_ for name, vars_ in held.items() if vars_} == {}

    def test_matmul_keeps_its_input_only_for_a_tracked_weight(self):
        rng = np.random.default_rng(46)
        x_arr, w_arr = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        gamma, beta = Tensor(np.ones(4), dtype=np.float64), Tensor(np.zeros(4), dtype=np.float64)
        alive, grads = {}, {}
        for w_tracked in (False, True):
            x = Tensor(x_arr, dtype=np.float64, requires_grad=True)
            w = Tensor(w_arr, dtype=np.float64, requires_grad=w_tracked)
            h = T.layer_norm(x, gamma, beta)
            ref = weakref.ref(h.data)
            y = T.matmul(h, w)
            del h
            gc.collect()
            alive[w_tracked] = ref() is not None
            weighted_scalar(y).backward()
            grads[w_tracked] = x.grad
        assert alive == {False: False, True: True}
        np.testing.assert_array_equal(grads[False], grads[True])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_gradient_bitwise_that_of_the_input_and_cdf_rule(self, dtype):
        # 0, -0.0, the erf branch edge near x = +-sqrt(2), and magnitudes
        # whose pdf underflows to zero
        edges = [0.0, -0.0, 1.414, -1.414, 1.4142135, -1.4142135, 8.0, -8.0,
                 40.0, -40.0, 1e4, -1e4]
        rng = np.random.default_rng(48)
        xd = np.concatenate([edges, rng.normal(0.0, 3.0, 500)]).astype(dtype)
        g = rng.normal(size=xd.shape).astype(dtype)
        (dx,) = T.gelu(Tensor(xd, requires_grad=True))._vjp(g)
        want = _gelu_grad_from_input_and_cdf(xd, g)
        assert dx.dtype == want.dtype and dx.tobytes() == want.tobytes()

    def test_tracked_gelu_keeps_its_derivative_alone(self):
        x = Tensor(np.random.default_rng(49).normal(size=(3, 5)), requires_grad=True)
        out = T.gelu(x)
        held = list(vjp_arrays(out._vjp).values())
        assert [arr.shape for arr in held] == [x.shape]
        assert not np.shares_memory(held[0], x.data)
        assert not np.shares_memory(held[0], out.data)

    def test_tracked_gelu_forward_makes_two_input_sized_arrays(self):
        x = Tensor(_large_layouts()["c_order"], requires_grad=True)
        assert traced_peak(lambda: T.gelu(x)) <= 2.3 * x.data.nbytes

    @pytest.mark.parametrize("tracked", [("x", "kernel", "rates"), ("kernel",)],
                             ids=["all_tracked", "kernel_only"])
    def test_conv_keeps_u_never_v(self, tracked):
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(size=(2, 2, 3, 4, 4)), requires_grad="x" in tracked)
        kern = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad="kernel" in tracked)
        rates = Tensor(1.0 + rng.random((2, 3)), requires_grad="rates" in tracked)
        held = vjp_arrays(depthwise_conv3d(x, kern, rates)._vjp)
        kt, kh = kern.shape[1:3]
        # u is kT times the input, v kT*kH times
        assert held["u"].size == kt * x.data.size
        assert max(arr.size for arr in held.values()) < kt * kh * x.data.size

    def test_second_backward_over_a_spent_graph_raises(self):
        rng = np.random.default_rng(51)
        x = Tensor(rng.normal(size=(2, 2, 3, 4, 4)), dtype=np.float64, requires_grad=True)
        kern = Tensor(rng.normal(size=(2, 3, 3, 3)), dtype=np.float64, requires_grad=True)
        rates = Tensor(1.0 + rng.random((2, 3)), dtype=np.float64, requires_grad=True)
        loss = weighted_scalar(T.gelu(depthwise_conv3d(x, kern, rates)))
        loss.backward()
        once = [t.grad.tobytes() for t in (x, kern, rates)]
        with pytest.raises(UsageError, match="backward already ran"):
            loss.backward()
        assert [t.grad.tobytes() for t in (x, kern, rates)] == once

    @pytest.mark.parametrize("op", ["gelu", "depthwise_conv3d", "layer_norm"])
    def test_vjp_called_twice_gives_the_same_bits(self, op):
        # no VJP writes into what it keeps
        out = _tracked_ops(np.random.default_rng(52))[op]()
        g = np.random.default_rng(53).normal(size=out.shape)
        first, second = out._vjp(g), out._vjp(g)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]

    def test_d2_model_graph_bytes(self):
        from feadapter import VideoViT, synth_dataset
        from feadapter.config import AdapterConfig, ModelConfig
        from feadapter.training import apply_freeze

        cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=16, depth=3,
                          heads=4, classes=2, adapter=AdapterConfig(variant="d2_conv3d", r=2))
        model = VideoViT(cfg, seed=0)
        apply_freeze(model, "adapter")
        data = synth_dataset(0, 2, 2, 4, 16, 16)
        loss = T.cross_entropy(model.forward(data.clips), data.labels)
        # sizes follow from the shapes alone; GELU VJPs that keep the
        # input and the CDF, and conv VJPs that keep the kT*kH-fold
        # resampled input, held 273796 bytes here, and a last block whose
        # MLP ran over every token 196612
        assert graph_bytes(loss, model.params.values()) <= 175876

    def test_backward_leaves_the_graph_holding_no_array(self):
        model, loss = _tiny_d2_loss()
        loss.backward()
        # the caller still holds loss, and through it every node
        assert graph_arrays(loss, model.params.values()) == []

    def test_last_block_arrays_dead_before_block_0_backward(self):
        blocks = {}
        model, loss = _tiny_d2_loss(blocks)
        params = {id(t.data) for t in model.params.values()}
        refs = [weakref.ref(arr) for node in blocks[model.cfg.depth - 1]
                for arr in vjp_arrays(node._vjp).values() if id(arr) not in params]
        alive = []

        def reached(vjp):
            def first_call(g):
                if not alive:
                    alive.append(sum(ref() is not None for ref in refs))
                return vjp(g)
            return first_call

        for node in blocks[0]:
            node._vjp = reached(node._vjp)
        loss.backward()
        assert refs and alive == [0]


def _tiny_d2_loss(block_nodes=None):
    """The d2_conv3d model of ``test_d2_model_graph_bytes`` in adapter
    mode and its loss on 4 clips. With ``block_nodes`` given, the op
    nodes that block ``i`` creates are stored in ``block_nodes[i]``."""
    from feadapter import VideoViT, synth_dataset
    from feadapter.config import AdapterConfig, ModelConfig
    from feadapter.training import apply_freeze

    cfg = ModelConfig(frames=4, height=16, width=16, patch=8, hidden=16, depth=3,
                      heads=4, classes=2, adapter=AdapterConfig(variant="d2_conv3d", r=2))
    model = VideoViT(cfg, seed=0)
    apply_freeze(model, "adapter")
    if block_nodes is not None:
        run_block = model._block

        def block(x, i):
            seen = set(trace_graph(x))
            out = run_block(x, i)
            block_nodes[i] = [node for node in trace_graph(out)
                              if node not in seen and node._vjp is not None]
            return out

        model._block = block
    data = synth_dataset(0, 2, 2, 4, 16, 16)
    return model, T.cross_entropy(model.forward(data.clips), data.labels)


def _gelu_grad_from_input_and_cdf(xd, g):
    """GELU's input gradient as a VJP that keeps the input and the CDF
    computes it, with the same numpy calls in the same order."""
    cdf = xd * (1.0 / math.sqrt(2.0))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    dx = xd * -0.5
    dx *= xd
    np.exp(dx, out=dx)
    dx *= 1.0 / math.sqrt(2.0 * math.pi)
    dx *= xd
    dx += cdf
    dx *= g
    return dx


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
        "matmul_bias": (T.matmul, [arr(2, 3, 4), arr(4, 5), arr(5)]),
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
