"""Tests for hyper-spherical coordinate conversions (paper Eq. 24-27)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import (
    to_cartesian,
    to_cartesian_batch,
    to_spherical,
    to_spherical_batch,
)


class TestToSpherical:
    def test_2d_known_angle(self):
        # Example 1 of the paper: g = (1, sqrt(3)) has theta = pi/3, |g| = 2.
        r, theta = to_spherical([1.0, np.sqrt(3.0)])
        assert r == pytest.approx(2.0)
        assert theta[0] == pytest.approx(np.pi / 3)

    def test_3d_axis_vectors(self):
        r, theta = to_spherical([1.0, 0.0, 0.0])
        assert r == pytest.approx(1.0)
        assert theta[0] == pytest.approx(0.0)

        r, theta = to_spherical([0.0, 0.0, 1.0])
        assert r == pytest.approx(1.0)
        assert theta[0] == pytest.approx(np.pi / 2)
        assert theta[1] == pytest.approx(np.pi / 2)

    def test_negative_first_coordinate_gives_obtuse_polar(self):
        _, theta = to_spherical([-1.0, 1.0, 0.5])
        assert np.pi / 2 < theta[0] <= np.pi

    def test_last_angle_full_range(self):
        _, theta = to_spherical([0.0, 1.0, -1.0])
        assert theta[-1] == pytest.approx(-np.pi / 4)

    def test_magnitude_matches_norm(self, gradient_batch):
        r, _ = to_spherical_batch(gradient_batch)
        assert np.allclose(r, np.linalg.norm(gradient_batch, axis=1))

    def test_angle_ranges(self, gradient_batch):
        _, theta = to_spherical_batch(gradient_batch)
        assert np.all(theta[:, :-1] >= 0)
        assert np.all(theta[:, :-1] <= np.pi)
        assert np.all(theta[:, -1] >= -np.pi)
        assert np.all(theta[:, -1] <= np.pi)

    def test_rejects_1d_vector_dimension(self):
        with pytest.raises(ValueError, match="dimension >= 2"):
            to_spherical_batch(np.ones((3, 1)))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            to_spherical_batch(np.ones((2, 2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            to_spherical_batch(np.array([[1.0, np.nan]]))

    def test_zero_vector_round_trips_to_zero(self):
        r, theta = to_spherical([0.0, 0.0, 0.0])
        assert r == 0.0
        back = to_cartesian(r, theta)
        assert np.allclose(back, 0.0)


class TestToCartesian:
    def test_2d_inverse(self):
        g = to_cartesian(2.0, [np.pi / 3])
        assert np.allclose(g, [1.0, np.sqrt(3.0)])

    def test_unit_magnitude_gives_unit_vector(self, rng):
        theta = np.concatenate([rng.uniform(0, np.pi, 8), rng.uniform(-np.pi, np.pi, 1)])
        g = to_cartesian(1.0, theta)
        assert np.linalg.norm(g) == pytest.approx(1.0)

    def test_negative_magnitude_flips_vector(self):
        theta = [np.pi / 4, 0.3]
        assert np.allclose(to_cartesian(-1.5, theta), -to_cartesian(1.5, theta))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="incompatible"):
            to_cartesian_batch(np.ones(3), np.ones((2, 4)))


class TestRoundTrip:
    def test_round_trip_batch(self, gradient_batch):
        r, theta = to_spherical_batch(gradient_batch)
        back = to_cartesian_batch(r, theta)
        assert np.allclose(back, gradient_batch, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(2, 40)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_round_trip_property(self, grads):
        r, theta = to_spherical_batch(grads)
        back = to_cartesian_batch(r, theta)
        assert np.allclose(back, grads, atol=1e-8 * (1 + np.abs(grads).max()))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 50), st.integers(0, 2**32 - 1))
    def test_spherical_of_cartesian_recovers_angles(self, dim, seed):
        rng = np.random.default_rng(seed)
        theta = np.concatenate(
            [
                rng.uniform(0.05, np.pi - 0.05, dim - 2),
                rng.uniform(-np.pi + 0.05, np.pi - 0.05, 1),
            ]
        )
        magnitude = float(rng.uniform(0.1, 10.0))
        g = to_cartesian(magnitude, theta)
        r2, theta2 = to_spherical(g)
        assert r2 == pytest.approx(magnitude, rel=1e-9)
        # Angles match except when a degenerate sine product collapses the
        # later angles; with angles bounded away from {0, pi} this is safe.
        assert np.allclose(theta2, theta, atol=1e-7)
