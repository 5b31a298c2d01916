"""Tests for GeoDP-Adam (the paper's future-work composition)."""

import numpy as np
import pytest

from repro.core import AdamOptimizer, GeoDpAdamOptimizer
from repro.core.pipeline import DpOptimizer
from repro.privacy import RdpAccountant


class TestGeoDpAdam:
    def test_requires_per_sample(self):
        assert isinstance(GeoDpAdamOptimizer(0.1, 1.0, 1.0, beta=0.5), DpOptimizer)

    def test_zero_noise_matches_adam(self, rng):
        grads = rng.normal(size=(8, 6)) * 0.01
        geo = GeoDpAdamOptimizer(0.1, 1.0, 0.0, beta=0.5, rng=0)
        adam = AdamOptimizer(0.1)
        w_geo = geo.step(np.zeros(6), grads)
        w_adam = adam.step(np.zeros(6), grads.mean(axis=0))
        assert np.allclose(w_geo, w_adam, atol=1e-10)

    def test_accountant_and_delta_prime(self, rng):
        acc = RdpAccountant()
        opt = GeoDpAdamOptimizer(
            0.1, 1.0, 1.0, beta=0.2, rng=0, accountant=acc, sample_rate=0.01
        )
        opt.step(np.zeros(4), rng.normal(size=(3, 4)))
        assert acc.total_steps == 1
        assert opt.delta_prime == pytest.approx(0.8)

    def test_trains_quadratic_privately(self, rng):
        opt = GeoDpAdamOptimizer(0.2, 1.0, 0.1, beta=0.1, rng=0)
        w = np.zeros(8)
        for _ in range(300):
            per_sample = (w - 3.0)[None, :] + rng.normal(0, 0.01, (8, 8))
            w = opt.step(w, per_sample)
        assert np.abs(w - 3.0).max() < 0.6

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="sensitivity_mode"):
            GeoDpAdamOptimizer(0.1, 1.0, 1.0, beta=0.5, sensitivity_mode="nope")

    def test_records_noisy_gradient(self, rng):
        opt = GeoDpAdamOptimizer(0.1, 1.0, 1.0, beta=0.5, rng=0)
        opt.step(np.zeros(5), rng.normal(size=(4, 5)))
        assert opt.last_noisy_gradient is not None
        assert opt.last_noisy_gradient.shape == (5,)
