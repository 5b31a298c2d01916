"""Tests for SGD / Adam / DP-Adam optimizers."""

import numpy as np
import pytest

from repro.core import AdamOptimizer, DpAdamOptimizer, SgdOptimizer
from repro.core.pipeline import DpOptimizer
from repro.privacy import RdpAccountant


def quadratic_grad(params):
    """Gradient of f(w) = 0.5 ||w - 3||^2."""
    return params - 3.0


class TestSgdOptimizer:
    def test_plain_update(self):
        opt = SgdOptimizer(0.1)
        new = opt.step(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
        assert np.allclose(new, [0.95, 2.05])

    def test_converges_on_quadratic(self):
        opt = SgdOptimizer(0.3)
        w = np.zeros(4)
        for _ in range(60):
            w = opt.step(w, quadratic_grad(w))
        assert np.allclose(w, 3.0, atol=1e-4)

    def test_momentum_accelerates(self):
        plain, heavy = SgdOptimizer(0.02), SgdOptimizer(0.02, momentum=0.9)
        w1 = w2 = np.zeros(3)
        for _ in range(40):
            w1 = plain.step(w1, quadratic_grad(w1))
            w2 = heavy.step(w2, quadratic_grad(w2))
        assert np.abs(w2 - 3.0).max() < np.abs(w1 - 3.0).max()

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SgdOptimizer(0.1, momentum=1.0)

    def test_not_per_sample(self):
        assert not isinstance(SgdOptimizer(0.1), DpOptimizer)


class TestAdamOptimizer:
    def test_converges_on_quadratic(self):
        opt = AdamOptimizer(0.3)
        w = np.zeros(4)
        for _ in range(200):
            w = opt.step(w, quadratic_grad(w))
        assert np.allclose(w, 3.0, atol=1e-2)

    def test_first_step_magnitude(self):
        """Bias correction makes the first Adam step ~ lr in gradient sign."""
        opt = AdamOptimizer(0.1)
        new = opt.step(np.zeros(2), np.array([1.0, -4.0]))
        assert np.allclose(np.abs(new), 0.1, rtol=1e-4)
        assert new[0] < 0 < new[1]

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            AdamOptimizer(0.1, beta1=1.0)


class TestDpAdamOptimizer:
    def test_requires_per_sample(self):
        assert isinstance(DpAdamOptimizer(0.1, 1.0, 1.0), DpOptimizer)

    def test_zero_noise_matches_adam_on_clipped_mean(self, rng):
        grads = rng.normal(size=(8, 5)) * 0.01  # below clip threshold
        dp = DpAdamOptimizer(0.1, 1.0, 0.0, rng=0)
        adam = AdamOptimizer(0.1)
        w_dp = dp.step(np.zeros(5), grads)
        w_adam = adam.step(np.zeros(5), grads.mean(axis=0))
        assert np.allclose(w_dp, w_adam)

    def test_accountant(self, rng):
        acc = RdpAccountant()
        opt = DpAdamOptimizer(0.1, 1.0, 1.0, rng=0, accountant=acc, sample_rate=0.02)
        opt.step(np.zeros(4), rng.normal(size=(2, 4)))
        assert acc.total_steps == 1

    def test_trains_quadratic_privately(self, rng):
        """DP-Adam still converges near the optimum under mild noise."""
        opt = DpAdamOptimizer(0.2, 1.0, 0.1, rng=0)
        w = np.zeros(3)
        for _ in range(300):
            per_sample = quadratic_grad(w)[None, :] + rng.normal(0, 0.01, (8, 3))
            w = opt.step(w, per_sample)
        assert np.abs(w - 3.0).max() < 0.5
