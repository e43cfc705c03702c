"""Unit tests for conv/pool primitives and helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestShapes:
    def test_conv_output_size(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(7, 7, 1, 0) == 1

    def test_conv2d_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((5, 3, 3, 3)))
        assert F.conv2d(x, w, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)

    def test_grouped_conv_shape(self):
        x = Tensor(np.zeros((1, 4, 6, 6)))
        w = Tensor(np.zeros((8, 2, 3, 3)))
        assert F.conv2d(x, w, padding=1, groups=2).shape == (1, 8, 6, 6)

    def test_conv2d_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 6, 6)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)

    def test_conv2d_group_divisibility(self):
        x = Tensor(np.zeros((1, 4, 6, 6)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(ValueError, match="not divisible"):
            F.conv2d(x, w, groups=2)

    def test_pools_shapes(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        assert F.max_pool2d(x, 2).shape == (2, 3, 4, 4)
        assert F.avg_pool2d(x, 2).shape == (2, 3, 4, 4)
        assert F.global_avg_pool2d(x).shape == (2, 3)


class TestNumerics:
    def test_conv2d_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w), padding=1)
        assert np.allclose(out.data, x)

    def test_conv2d_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(1, 2, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        manual = np.zeros((1, 1, 3, 3))
        for i in range(3):
            for j in range(3):
                manual[0, 0, i, j] = (x[0, :, i:i + 2, j:j + 2] * w[0]).sum()
        assert np.allclose(out, manual)

    def test_grouped_equals_blockdiag_full_conv(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(4, 2, 3, 3))
        grouped = F.conv2d(Tensor(x), Tensor(w), padding=1, groups=2).data
        wfull = np.zeros((4, 4, 3, 3))
        wfull[:2, :2] = w[:2]
        wfull[2:, 2:] = w[2:]
        full = F.conv2d(Tensor(x), Tensor(wfull), padding=1).data
        assert np.allclose(grouped, full)

    def test_depthwise_equals_blockdiag(self):
        rng = np.random.default_rng(3)
        c = 5
        x = rng.normal(size=(1, c, 6, 6))
        w = rng.normal(size=(c, 1, 3, 3))
        depthwise = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1,
                             groups=c).data
        wfull = np.zeros((c, c, 3, 3))
        for ch in range(c):
            wfull[ch, ch] = w[ch, 0]
        full = F.conv2d(Tensor(x), Tensor(wfull), stride=2, padding=1).data
        assert np.allclose(depthwise, full)

    def test_max_pool_picks_maxima(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_averages(self):
        x = np.ones((1, 1, 4, 4))
        assert np.allclose(F.avg_pool2d(Tensor(x), 2).data, 1.0)

    def test_max_pool_with_padding_ignores_pad(self):
        x = -np.ones((1, 1, 2, 2))
        out = F.max_pool2d(Tensor(x), 2, stride=1, padding=1)
        # padding is -inf, so maxima are the real values
        assert out.data.max() == -1.0

    def test_global_avg_pool_matches_mean(self):
        x = np.random.default_rng(4).normal(size=(2, 3, 4, 4))
        assert np.allclose(F.global_avg_pool2d(Tensor(x)).data,
                           x.mean(axis=(2, 3)))


class TestIm2Col:
    @settings(max_examples=10, deadline=None)
    @given(h=st.integers(4, 8), stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]), seed=st.integers(0, 1000))
    def test_col2im_adjoint_of_im2col(self, h, stride, padding, seed):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, h, h))
        cols, oh, ow = F.im2col(x, 3, 3, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, 3, 3, stride, padding)
        rhs = float((x * back).sum())
        assert np.isclose(lhs, rhs)

    def test_im2col_counts(self):
        x = np.ones((1, 1, 4, 4))
        cols, oh, ow = F.im2col(x, 2, 2, 2, 0)
        assert cols.shape == (1, 4, 4)
        assert oh == ow == 2


class TestDropoutOneHot:
    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02
