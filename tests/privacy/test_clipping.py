"""Tests for per-sample clipping strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.privacy import AutoSClipping, FlatClipping, PsacClipping


def norms(x):
    return np.linalg.norm(x, axis=1)


grad_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 20), st.integers(1, 30)),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestFlatClipping:
    def test_small_gradients_untouched(self, rng):
        grads = rng.normal(size=(10, 5)) * 0.01
        clipper = FlatClipping(1.0)
        assert np.allclose(clipper.clip(grads), grads)

    def test_large_gradients_rescaled_to_threshold(self, rng):
        grads = rng.normal(size=(10, 5)) * 100
        clipped = FlatClipping(1.0).clip(grads)
        assert np.allclose(norms(clipped), 1.0)

    def test_direction_preserved(self, rng):
        grads = rng.normal(size=(8, 6)) * 10
        clipped = FlatClipping(0.5).clip(grads)
        cos = np.sum(grads * clipped, axis=1) / (norms(grads) * norms(clipped))
        assert np.allclose(cos, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(grad_matrices, st.floats(0.01, 10.0))
    def test_sensitivity_bound(self, grads, clip_norm):
        clipper = FlatClipping(clip_norm)
        clipped = clipper.clip(grads)
        assert np.all(norms(clipped) <= clipper.sensitivity() * (1 + 1e-9))

    def test_example_1_from_paper(self):
        # g = (1, sqrt(3)), C = 1 -> clipped = (1/2, sqrt(3)/2).
        clipped = FlatClipping(1.0).clip(np.array([[1.0, np.sqrt(3.0)]]))
        assert np.allclose(clipped, [[0.5, np.sqrt(3.0) / 2]])


class TestAutoSClipping:
    def test_always_rescales(self, rng):
        grads = rng.normal(size=(10, 5))
        clipped = AutoSClipping(1.0, gamma=0.01).clip(grads)
        # AUTO-S multiplies by C/(||g||+gamma) so norms change for all rows.
        assert not np.allclose(norms(clipped), norms(grads))

    def test_norm_strictly_below_threshold(self, rng):
        grads = rng.normal(size=(50, 8)) * rng.uniform(0.001, 100, size=(50, 1))
        clipper = AutoSClipping(2.0, gamma=0.01)
        assert np.all(norms(clipper.clip(grads)) < 2.0)

    def test_large_norm_limit(self):
        grads = np.array([[1e6, 0.0]])
        clipped = AutoSClipping(1.0, gamma=0.01).clip(grads)
        assert norms(clipped)[0] == pytest.approx(1.0, rel=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(grad_matrices)
    def test_sensitivity_bound(self, grads):
        clipper = AutoSClipping(1.5)
        assert np.all(norms(clipper.clip(grads)) <= clipper.sensitivity() + 1e-9)


class TestPsacClipping:
    def test_norm_bounded(self, rng):
        grads = rng.normal(size=(50, 8)) * rng.uniform(0.001, 100, size=(50, 1))
        clipper = PsacClipping(1.0, gamma=0.01)
        assert np.all(norms(clipper.clip(grads)) < 1.0)

    def test_tiny_gradients_attenuated(self):
        # ||clipped|| = C ||g||^2/(||g||^2 + gamma): a tiny gradient keeps a
        # tiny share of the budget instead of being inflated.
        tiny = np.array([[1e-4, 0.0]])
        clipped = PsacClipping(1.0, gamma=0.01).clip(tiny)
        assert norms(clipped)[0] < 1e-5

    def test_norm_monotone_in_input_norm(self):
        clipper = PsacClipping(1.0, gamma=0.01)
        small = clipper.clip(np.array([[0.05, 0.0]]))
        large = clipper.clip(np.array([[5.0, 0.0]]))
        assert norms(small)[0] < norms(large)[0]

    def test_zero_gradient_stays_zero(self):
        clipped = PsacClipping(1.0).clip(np.zeros((2, 3)))
        assert np.allclose(clipped, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(grad_matrices)
    def test_sensitivity_bound(self, grads):
        clipper = PsacClipping(2.0)
        assert np.all(norms(clipper.clip(grads)) <= clipper.sensitivity() + 1e-9)


class TestClipWithNorms:
    """clip() is now a view onto clip_with_norms(); the returned norms must
    be the exact pre-clip per-sample L2 norms for every strategy."""

    @pytest.mark.parametrize(
        "clipper",
        [
            FlatClipping(0.5),
            AutoSClipping(0.5),
            PsacClipping(0.5),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_norms_match_pre_clip_norms(self, clipper, rng):
        grads = rng.normal(size=(12, 7))
        clipped, returned = clipper.clip_with_norms(grads)
        assert np.allclose(returned, norms(grads))
        assert clipped.shape == grads.shape

    def test_clip_equals_clip_with_norms(self, rng):
        grads = rng.normal(size=(12, 7))
        assert np.array_equal(
            FlatClipping(0.5).clip(grads), FlatClipping(0.5).clip_with_norms(grads)[0]
        )
