"""Tests for stateless tensor ops: softmax, one-hot, im2col/col2im."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend, use_backend
from repro.nn import (
    col2im,
    conv_output_shape,
    im2col,
    log_softmax,
    one_hot,
    relu,
    softmax,
)

from tests.backend.conftest import parity_backends


def col2im_kernels() -> dict:
    """Each available backend's ``col2im`` kernel, by backend name."""
    kernels = {}
    for name in ("reference", *parity_backends()):
        with use_backend(name):
            kernels[name] = get_backend().col2im
    return kernels


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_softmax_sums_to_one(self, rng):
        probs = softmax(rng.normal(size=(7, 11)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 5))
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_softmax_overflow_safe(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(4, 6))
        assert np.allclose(log_softmax(logits), np.log(softmax(logits)))

    def test_log_softmax_underflow_safe(self):
        out = log_softmax(np.array([[0.0, -2000.0]]))
        assert np.isfinite(out).all()


class TestOneHot:
    def test_basic(self):
        out = one_hot([0, 2, 1], 3)
        assert np.array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            one_hot([3], 3)
        with pytest.raises(ValueError, match="lie in"):
            one_hot([-1], 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            one_hot([[1]], 3)


class TestConvOutputShape:
    def test_no_padding(self):
        assert conv_output_shape(28, 28, 3, 1, 0) == (26, 26)

    def test_same_padding(self):
        assert conv_output_shape(28, 28, 3, 1, 1) == (28, 28)

    def test_stride(self):
        assert conv_output_shape(32, 32, 3, 2, 1) == (16, 16)

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError, match="empty output"):
            conv_output_shape(2, 2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = im2col(x, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)

    def test_values_match_naive_extraction(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        cols = im2col(x, 3, 1, 0)
        # Patch at output position (1, 2) -> columns index 1*3+2.
        patch = x[0, :, 1:4, 2:5].ravel()
        assert np.allclose(cols[0, :, 1 * 3 + 2], patch)

    def test_conv_equals_naive_convolution(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        cols = im2col(x, 3, 1, 1)
        out = np.einsum("ok,bkl->bol", w.reshape(4, -1), cols).reshape(2, 4, 6, 6)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros((2, 4, 6, 6))
        for b in range(2):
            for o in range(4):
                for i in range(6):
                    for j in range(6):
                        naive[b, o, i, j] = np.sum(
                            xp[b, :, i : i + 3, j : j + 3] * w[o]
                        )
        assert np.allclose(out, naive)

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError, match="B, C, H, W"):
            im2col(np.zeros((3, 8, 8)), 3)


class TestCol2Im:
    def test_adjoint_property(self, rng):
        """col2im must be the exact adjoint of im2col: <im2col(x), c> = <x, col2im(c)>."""
        x = rng.normal(size=(2, 3, 7, 7))
        for kernel, stride, pad in [(3, 1, 1), (3, 2, 0), (2, 2, 0), (5, 1, 2)]:
            cols = im2col(x, kernel, stride, pad)
            c = rng.normal(size=cols.shape)
            lhs = np.sum(cols * c)
            for name, backend_col2im in col2im_kernels().items():
                rhs = np.sum(x * backend_col2im(c, x.shape, kernel, stride, pad))
                assert lhs == pytest.approx(rhs, rel=1e-10), name

    def test_counts_overlaps(self):
        x_shape = (1, 1, 3, 3)
        cols = np.ones((1, 4, 4))  # kernel 2, stride 1 -> 2x2 output
        out = col2im(cols, x_shape, 2, 1, 0)
        # Centre pixel is covered by all four 2x2 patches.
        assert out[0, 0, 1, 1] == 4.0
        assert out[0, 0, 0, 0] == 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(4, 9), st.integers(0, 10**6))
    def test_adjoint_property_random_geometry(self, batch, channels, size, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, size, size))
        kernel = int(rng.integers(1, min(4, size) + 1))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        cols = im2col(x, kernel, stride, pad)
        c = rng.normal(size=cols.shape)
        lhs = np.sum(cols * c)
        for name, backend_col2im in col2im_kernels().items():
            rhs = np.sum(x * backend_col2im(c, x.shape, kernel, stride, pad))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9), name
