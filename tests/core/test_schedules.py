"""Tests for hyper-parameter schedules and the scheduling wrapper."""

import numpy as np
import pytest

from repro.core import (
    ConstantSchedule,
    CosineDecay,
    DpSgdOptimizer,
    ExponentialDecay,
    LinearDecay,
    ScheduledOptimizer,
    SgdOptimizer,
    StepDecay,
)


class TestSchedules:
    def test_constant(self):
        s = ConstantSchedule(0.5)
        assert s(0) == s(100) == 0.5

    def test_linear_decay_endpoints(self):
        s = LinearDecay(1.0, 0.1, 100)
        assert s(0) == pytest.approx(1.0)
        assert s(50) == pytest.approx(0.55)
        assert s(100) == pytest.approx(0.1)
        assert s(500) == pytest.approx(0.1)  # clamps after total_steps

    def test_exponential_decay(self):
        s = ExponentialDecay(1.0, 0.5)
        assert s(0) == 1.0
        assert s(3) == pytest.approx(0.125)

    def test_exponential_floor(self):
        s = ExponentialDecay(1.0, 0.1, minimum=0.05)
        assert s(100) == 0.05

    def test_step_decay(self):
        s = StepDecay(1.0, 0.5, period=10)
        assert s(9) == 1.0
        assert s(10) == 0.5
        assert s(25) == 0.25

    def test_cosine_decay(self):
        s = CosineDecay(1.0, 0.0, 100)
        assert s(0) == pytest.approx(1.0)
        assert s(50) == pytest.approx(0.5)
        assert s(100) == pytest.approx(0.0, abs=1e-12)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            ConstantSchedule(1.0)(-1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LinearDecay(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            ExponentialDecay(1.0, 1.5)
        with pytest.raises(ValueError):
            StepDecay(1.0, 0.5, 0)


class TestScheduledOptimizer:
    def test_lr_schedule_applied(self):
        opt = SgdOptimizer(123.0)
        wrapped = ScheduledOptimizer(opt, learning_rate=LinearDecay(1.0, 0.0, 10))
        params = np.zeros(3)
        grad = np.ones(3)
        out = wrapped.step(params, grad)
        assert np.allclose(out, -1.0)  # step 0: lr = 1.0
        assert opt.learning_rate == pytest.approx(1.0)
        wrapped.step(params, grad)
        assert opt.learning_rate == pytest.approx(0.9)

    def test_noise_schedule_applied(self, rng):
        opt = DpSgdOptimizer(0.1, 1.0, 5.0, rng=0)
        wrapped = ScheduledOptimizer(opt, noise_multiplier=ExponentialDecay(5.0, 0.5))
        grads = rng.normal(size=(4, 3))
        wrapped.step(np.zeros(3), grads)
        wrapped.step(np.zeros(3), grads)
        assert opt.noise_multiplier == pytest.approx(2.5)

    def test_noise_schedule_needs_noise_attr(self):
        with pytest.raises(ValueError, match="noise_multiplier"):
            ScheduledOptimizer(SgdOptimizer(0.1), noise_multiplier=ConstantSchedule(1.0))

    def test_second_schedule_on_same_optimizer_rejected(self):
        opt = DpSgdOptimizer(0.1, 1.0, 1.0, rng=0)
        wrapped = ScheduledOptimizer(opt, learning_rate=ConstantSchedule(0.1))
        with pytest.raises(ValueError, match="already scheduled"):
            ScheduledOptimizer(opt, learning_rate=ConstantSchedule(0.01))
        with pytest.raises(ValueError, match="already scheduled"):
            ScheduledOptimizer(wrapped, learning_rate=ConstantSchedule(0.01))

    def test_delegation(self, rng):
        opt = DpSgdOptimizer(0.1, 1.0, 1.0, rng=0)
        wrapped = ScheduledOptimizer(opt)
        assert wrapped.requires_per_sample
        wrapped.step(np.zeros(3), rng.normal(size=(2, 3)))
        assert wrapped.last_noisy_gradient is not None

    def test_decayed_noise_trains_with_trainer(self):
        """End to end: decaying noise multiplier inside the trainer loop."""
        from repro.core import Trainer
        from repro.data import make_mnist_like, train_test_split
        from repro.models import build_logistic_regression

        train, _ = train_test_split(make_mnist_like(200, rng=0, size=16), rng=0)
        opt = DpSgdOptimizer(1.0, 0.1, 10.0, rng=1)
        wrapped = ScheduledOptimizer(
            opt, noise_multiplier=LinearDecay(10.0, 0.1, 20)
        )
        model = build_logistic_regression((1, 16, 16), rng=0)
        Trainer(model, wrapped, train, batch_size=32, rng=2).train(20)
        assert opt.noise_multiplier < 10.0

    @pytest.mark.parametrize("path", ["materialize", "ghost", "microbatch"])
    def test_schedule_advances_once_per_release_on_every_path(self, path):
        """Ghost and microbatch lots release through ``step_presummed``; the
        schedule must advance there exactly as on the materialized path."""
        from repro.core import Trainer
        from repro.data import make_mnist_like, train_test_split
        from repro.models import build_logistic_regression

        train, _ = train_test_split(make_mnist_like(200, rng=0, size=16), rng=0)
        opt = DpSgdOptimizer(0.5, 0.1, 1.0, rng=1)
        schedule = LinearDecay(1.0, 0.01, 10)
        wrapped = ScheduledOptimizer(opt, learning_rate=schedule)
        model = build_logistic_regression((1, 16, 16), rng=0)
        Trainer(
            model,
            wrapped,
            train,
            batch_size=32,
            rng=2,
            grad_mode="ghost" if path == "ghost" else "materialize",
            microbatch_size=8 if path == "microbatch" else None,
        ).train(10)
        assert wrapped.step_count == 10
        assert opt.learning_rate == schedule(9)
