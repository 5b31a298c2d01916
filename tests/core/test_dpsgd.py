"""Tests for the DP-SGD optimizer."""

import numpy as np
import pytest

from repro.core import DpSgdOptimizer
from repro.core.pipeline import DpOptimizer
from repro.privacy import AutoSClipping, FlatClipping, RdpAccountant, ReleaseLedger


class TestNoisyGradient:
    def test_zero_noise_equals_clipped_mean(self, rng):
        opt = DpSgdOptimizer(0.1, 1.0, 0.0, rng=0)
        grads = rng.normal(size=(16, 10)) * 5
        noisy = opt.noisy_gradient(grads)
        clipped = FlatClipping(1.0).clip(grads)
        assert np.allclose(noisy, clipped.mean(axis=0))

    def test_noise_scale(self):
        opt = DpSgdOptimizer(0.1, 2.0, 1.0, rng=0)
        grads = np.zeros((4, 100_000))
        noisy = opt.noisy_gradient(grads)
        # std = sigma * C / B = 2 / 4 = 0.5
        assert np.std(noisy) == pytest.approx(0.5, rel=0.02)

    def test_respects_custom_clipping(self, rng):
        clipping = AutoSClipping(1.0)
        opt = DpSgdOptimizer(0.1, clipping, 0.0, rng=0)
        grads = rng.normal(size=(8, 6))
        assert np.allclose(opt.noisy_gradient(grads), clipping.clip(grads).mean(axis=0))


class TestStep:
    def test_update_rule(self, rng):
        opt = DpSgdOptimizer(0.5, 1.0, 0.0, rng=0)
        params = rng.normal(size=10)
        grads = rng.normal(size=(4, 10)) * 0.01
        new = opt.step(params, grads)
        assert np.allclose(new, params - 0.5 * grads.mean(axis=0))

    def test_records_last_noisy_gradient(self, rng):
        opt = DpSgdOptimizer(0.5, 1.0, 1.0, rng=0)
        opt.step(np.zeros(5), rng.normal(size=(3, 5)))
        assert opt.last_noisy_gradient is not None
        assert opt.last_noisy_gradient.shape == (5,)

    def test_deterministic_with_seed(self, rng):
        grads = rng.normal(size=(4, 6))
        a = DpSgdOptimizer(0.1, 1.0, 1.0, rng=7).step(np.zeros(6), grads)
        b = DpSgdOptimizer(0.1, 1.0, 1.0, rng=7).step(np.zeros(6), grads)
        assert np.allclose(a, b)


class TestAccounting:
    def test_accountant_steps_recorded(self, rng):
        acc = RdpAccountant()
        opt = DpSgdOptimizer(0.1, 1.0, 1.0, rng=0, accountant=acc, sample_rate=0.01)
        for _ in range(5):
            opt.step(np.zeros(4), rng.normal(size=(2, 4)))
        assert acc.total_steps == 5
        assert acc.get_epsilon(1e-5) > 0

    def test_accountant_requires_sample_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            DpSgdOptimizer(0.1, 1.0, 1.0, accountant=RdpAccountant())

    def test_ledger_requires_sample_rate(self):
        """Without a rate every entry would chain ``sample_rate`` 0.0, which
        replay cannot charge, so ``verify_ledger`` would fail the run."""
        with pytest.raises(ValueError, match="sample_rate"):
            DpSgdOptimizer(0.1, 1.0, 1.0, rng=0, ledger=ReleaseLedger())

    @pytest.mark.parametrize("sample_rate", [1.5, -0.2])
    @pytest.mark.parametrize("sink", ["accountant", "ledger"])
    def test_sample_rate_outside_unit_interval_rejected(self, sink, sample_rate):
        """Refused at construction, before a release draws noise or chains
        a rate no accountant can charge into the ledger."""
        sinks = {"accountant": RdpAccountant(), "ledger": ReleaseLedger()}
        with pytest.raises(ValueError, match="sample_rate"):
            DpSgdOptimizer(
                1.0, 1.0, 1.0, rng=0, sample_rate=sample_rate, **{sink: sinks[sink]}
            )

    def test_float_clipping_becomes_flat(self):
        opt = DpSgdOptimizer(0.1, 0.7, 1.0)
        assert isinstance(opt.clipping, FlatClipping)
        assert opt.clipping.clip_norm == 0.7

    def test_requires_per_sample_flag(self):
        """Being a DpOptimizer is what gets per-sample gradients from the trainer."""
        assert isinstance(DpSgdOptimizer(0.1, 1.0, 1.0), DpOptimizer)


class TestMomentum:
    def test_momentum_accumulates_velocity(self, rng):
        """With constant gradients, momentum steps grow toward lr*g/(1-m)."""
        grads = np.tile(np.ones(4) * 0.01, (8, 1))
        opt = DpSgdOptimizer(1.0, 1.0, 0.0, rng=0, momentum=0.5)
        w = np.zeros(4)
        w1 = opt.step(w, grads)
        step1 = w - w1
        w2 = opt.step(w1, grads)
        step2 = w1 - w2
        assert np.all(step2 > step1)  # velocity builds up
        assert np.allclose(step2, step1 * 1.5)  # v2 = 0.5*v1 + g = 1.5*g

    def test_zero_momentum_is_plain(self, rng):
        grads = rng.normal(size=(4, 5)) * 0.01
        plain = DpSgdOptimizer(0.5, 1.0, 0.0, rng=0).step(np.zeros(5), grads)
        with_m = DpSgdOptimizer(0.5, 1.0, 0.0, rng=0, momentum=0.0).step(
            np.zeros(5), grads
        )
        assert np.allclose(plain, with_m)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError, match="momentum"):
            DpSgdOptimizer(0.1, 1.0, 1.0, momentum=1.0)

    def test_geodp_momentum(self, rng):
        from repro.core import GeoDpSgdOptimizer

        grads = np.tile(np.ones(4) * 0.01, (8, 1))
        opt = GeoDpSgdOptimizer(1.0, 1.0, 0.0, beta=0.5, rng=0, momentum=0.9)
        w = opt.step(np.zeros(4), grads)
        w = opt.step(w, grads)
        assert opt._velocity is not None
        with pytest.raises(ValueError, match="momentum"):
            GeoDpSgdOptimizer(0.1, 1.0, 1.0, beta=0.5, momentum=-0.1)
