"""Tests for noise-multiplier calibration against a target budget."""

import pytest

from repro.privacy.curves import find_noise_multiplier
from repro.privacy.rdp import DEFAULT_ALPHAS, rdp_subsampled_gaussian, rdp_to_dp


def composed(sigma, q, steps, delta):
    rdp = steps * rdp_subsampled_gaussian(q, sigma, DEFAULT_ALPHAS)
    return rdp_to_dp(DEFAULT_ALPHAS, rdp, delta)[0]


class TestFindNoiseMultiplier:
    def test_meets_target(self):
        sigma = find_noise_multiplier(2.0, 1e-5, 0.01, 1000)
        assert composed(sigma, 0.01, 1000, 1e-5) <= 2.0 * (1 + 1e-3)

    def test_is_tight(self):
        sigma = find_noise_multiplier(2.0, 1e-5, 0.01, 1000)
        assert composed(sigma * 0.95, 0.01, 1000, 1e-5) > 2.0

    def test_tighter_target_needs_more_noise(self):
        loose = find_noise_multiplier(5.0, 1e-5, 0.01, 500)
        tight = find_noise_multiplier(0.5, 1e-5, 0.01, 500)
        assert tight > loose

    def test_more_steps_need_more_noise(self):
        short = find_noise_multiplier(1.0, 1e-5, 0.01, 100)
        long = find_noise_multiplier(1.0, 1e-5, 0.01, 10000)
        assert long > short

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            find_noise_multiplier(1.0, 1e-5, 0.01, 0)
