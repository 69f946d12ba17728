"""Tests for NN operations: matmul, activations, softmax, conv, pooling."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    check_gradients,
    conv2d,
    dropout_mask,
    leaky_relu,
    log_softmax,
    max_pool2d,
    no_grad,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from repro.autograd._im2col import col2im, conv_output_size, im2col
from repro.autograd.ops_nn import MaxPool2d, ReLU
from repro.runtime import hotpaths


def randn(*shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(size=shape) * scale)


def naive_conv2d(x, w, b, stride, padding):
    """Straightforward loop reference implementation of conv2d."""
    n, c_in, h, wdt = x.shape
    c_out, _, kh, kw = w.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (wdt + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(n):
        for o in range(c_out):
            for y in range(out_h):
                for z in range(out_w):
                    patch = xp[
                        i, :, y * stride : y * stride + kh,
                        z * stride : z * stride + kw,
                    ]
                    out[i, o, y, z] = (patch * w[o]).sum() + (
                        b[o] if b is not None else 0.0
                    )
    return out


class TestMatmul:
    def test_forward(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        b = np.random.default_rng(1).normal(size=(4, 2))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_gradients(self):
        check_gradients(
            lambda a, b: a @ b, [randn(3, 4), randn(4, 2, seed=1)]
        )

    def test_batched(self):
        a = randn(2, 3, 4)
        b = randn(2, 4, 5, seed=1)
        assert (a @ b).shape == (2, 3, 5)
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_broadcast_batched(self):
        check_gradients(
            lambda x, y: x @ y, [randn(2, 3, 4), randn(4, 5, seed=1)]
        )


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        relu(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_leaky_relu(self):
        out = leaky_relu(Tensor(np.array([-2.0, 2.0])), negative_slope=0.1)
        assert np.allclose(out.data, [-0.2, 2.0])
        check_gradients(
            lambda a: leaky_relu(a, negative_slope=0.1),
            [randn(4, seed=3) + 0.3],
        )

    def test_sigmoid_values_and_grad(self):
        assert np.isclose(sigmoid(Tensor([0.0])).item(), 0.5)
        check_gradients(lambda a: sigmoid(a), [randn(5)])

    def test_tanh_values_and_grad(self):
        assert np.isclose(tanh(Tensor([0.0])).item(), 0.0)
        check_gradients(lambda a: tanh(a), [randn(5)])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(randn(4, 7))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_stable_with_large_logits(self):
        out = softmax(Tensor(np.array([[1000.0, 1000.0]])))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_gradients(self):
        check_gradients(lambda a: softmax(a, axis=-1), [randn(3, 5)])

    def test_log_softmax_matches_log_of_softmax(self):
        x = randn(3, 5)
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_log_softmax_gradients(self):
        check_gradients(lambda a: log_softmax(a), [randn(3, 5)])


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        ours = conv2d(
            Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding
        ).data
        theirs = naive_conv2d(x, w, b, stride, padding)
        assert np.allclose(ours, theirs)

    def test_no_bias(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(3, 2, 3, 3))
        ours = conv2d(Tensor(x), Tensor(w)).data
        theirs = naive_conv2d(x, w, None, 1, 0)
        assert np.allclose(ours, theirs)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(randn(1, 2, 4, 4), randn(3, 5, 3, 3))

    def test_gradients(self):
        check_gradients(
            lambda x, w, b: conv2d(x, w, b, stride=1, padding=1),
            [randn(2, 2, 5, 5), randn(3, 2, 3, 3, seed=1, scale=0.5),
             randn(3, seed=2)],
        )

    def test_gradients_strided(self):
        check_gradients(
            lambda x, w: conv2d(x, w, stride=2),
            [randn(1, 2, 6, 6), randn(2, 2, 2, 2, seed=1, scale=0.5)],
        )


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_gradients(self):
        check_gradients(lambda a: max_pool2d(a, 2), [randn(2, 3, 4, 4)])

    def test_avg_pool_gradients(self):
        check_gradients(lambda a: avg_pool2d(a, 2), [randn(2, 3, 4, 4)])

    def test_max_pool_stride(self):
        out = max_pool2d(randn(1, 1, 6, 6), kernel_size=3, stride=3)
        assert out.shape == (1, 1, 2, 2)

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            max_pool2d(randn(1, 1, 2, 2), kernel_size=5)

    def test_max_pool_padding_all_negative_input(self):
        """Padding cells must never win the argmax.

        With zero-filled padding, a window of strictly negative activations
        would report 0 (the pad value) as its max and route gradient into
        the void; the pad must act as -inf instead.
        """
        x = Tensor(
            np.full((1, 1, 2, 2), -3.0), requires_grad=True
        )
        out = max_pool2d(x, kernel_size=2, stride=2, padding=1)
        assert np.allclose(out.data, -3.0)
        out.backward(np.ones_like(out.data))
        # Each input cell is the max of exactly one window.
        assert np.allclose(x.grad, 1.0)

    def test_max_pool_padding_gradients(self):
        check_gradients(
            lambda a: max_pool2d(a, kernel_size=2, padding=1),
            [randn(2, 2, 4, 4)],
        )


def _tied_activations(seed):
    """Small-integer activations full of ties: an all-zero window and an
    all-equal window per channel, repeated maxima elsewhere, and negative
    values for the ReLU to clip."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(3, 4, 6, 8)).astype(np.float64)
    x[:, :, :2, :2] = 0.0        # one all-zero window per channel
    x[:, :, 2:4, 2:4] = 1.0      # one window whose four cells tie
    return x


class TestKernelParity:
    """The fast ReLU/2x2-pool kernels equal the reference routes bitwise."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relu_matches_reference(self, seed):
        a = _tied_activations(seed)
        grad = np.random.default_rng(seed + 10).normal(size=a.shape)
        x = Tensor(a, requires_grad=True)
        out = relu(x)
        out.backward(grad)
        mask = a > 0
        assert np.array_equal(out.data, a * mask)
        assert np.array_equal(x.grad, grad * mask)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("post_relu", [False, True])
    def test_max_pool_2x2_matches_hotpaths_off(self, seed, post_relu):
        a = _tied_activations(seed)
        if post_relu:
            a = np.maximum(a, 0.0)
        grad = np.random.default_rng(seed + 10).normal(size=(3, 4, 3, 4))
        results = []
        for enabled in (True, False):
            with hotpaths(enabled):
                x = Tensor(a, requires_grad=True)
                out = max_pool2d(x, 2)
                out.backward(grad)
            results.append((out.data, x.grad))
        (fast_out, fast_grad), (ref_out, ref_grad) = results
        assert np.array_equal(fast_out, ref_out)
        assert np.array_equal(fast_grad, ref_grad)
        # Exactly one routed cell per window, even where all four tie.
        routed = (fast_grad != 0).reshape(3, 4, 3, 2, 4, 2).sum(axis=(3, 5))
        assert routed.max() <= 1

    def test_conv2d_output_is_c_contiguous(self):
        out = conv2d(randn(2, 3, 8, 8), randn(4, 3, 3, 3, seed=1), padding=1)
        assert out.data.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize(
        "op,kwargs", [(ReLU, {}), (MaxPool2d, {"kernel_size": 2})]
    )
    def test_no_grad_saves_nothing(self, op, kwargs):
        a = _tied_activations(0)
        ctx = op()
        with no_grad():
            op.forward(ctx, a, **kwargs)
        assert ctx.saved == ()
        ctx = op()
        op.forward(ctx, a, **kwargs)
        assert ctx.saved != ()


class TestDropoutMask:
    def test_applies_mask(self):
        x = Tensor(np.ones((2, 2)))
        mask = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert np.allclose(dropout_mask(x, mask).data, mask)

    def test_gradient_through_mask(self):
        x = Tensor(np.ones((2,)), requires_grad=True)
        dropout_mask(x, np.array([2.0, 0.0])).sum().backward()
        assert np.allclose(x.grad, [2.0, 0.0])


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self):
        """col2im of all-ones must count each pixel's window membership."""
        x = np.ones((1, 1, 4, 4))
        cols = im2col(x, 3, 3, 1, 0)
        back = col2im(cols, x.shape, 3, 3, 1, 0)
        # Centre pixels belong to 4 windows; corners to 1.
        assert back[0, 0, 0, 0] == 1.0
        assert back[0, 0, 1, 1] == 4.0

    def test_output_size(self):
        assert conv_output_size(28, 3, 1, 1) == 28
        assert conv_output_size(28, 2, 2, 0) == 14

    def test_output_size_invalid(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_im2col_shape(self):
        cols = im2col(np.zeros((2, 3, 5, 5)), 3, 3, 1, 1)
        assert cols.shape == (2 * 5 * 5, 3 * 3 * 3)
