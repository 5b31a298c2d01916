"""Tests for hyper-parameter schedules and :func:`repro.core.schedule`."""

import numpy as np
import pytest

from repro.checkpoint import SnapshotError, capture_training_state, restore_training_state
from repro.core import DpSgdOptimizer, LinearDecay, SgdOptimizer, Trainer, schedule
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.privacy.accountant import RdpAccountant
from repro.privacy.ledger import ReleaseLedger


class TestSchedules:
    def test_linear_decay_endpoints(self):
        s = LinearDecay(1.0, 0.1, 100)
        assert s(0) == pytest.approx(1.0)
        assert s(50) == pytest.approx(0.55)
        assert s(100) == pytest.approx(0.1)
        assert s(500) == pytest.approx(0.1)  # clamps after total_steps

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            LinearDecay(1.0, 0.1, 10)(-1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LinearDecay(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            LinearDecay(-1.0, 0.1, 10)


def small_train():
    return train_test_split(make_mnist_like(200, rng=0, size=16), rng=0)[0]


def lr_model():
    return build_logistic_regression((1, 16, 16), rng=0)


class TestScheduledOptimizer:
    def test_lr_schedule_applied(self):
        opt = schedule(
            DpSgdOptimizer(123.0, 1.0, 0.0, rng=0),
            learning_rate=LinearDecay(1.0, 0.0, 10),
        )
        grads = np.full((1, 3), 0.1)  # inside the clipping bound
        out = opt.step(np.zeros(3), grads)
        assert np.allclose(out, -0.1)  # step 0: lr = 1.0
        assert opt.learning_rate == pytest.approx(1.0)
        opt.step(np.zeros(3), grads)
        assert opt.learning_rate == pytest.approx(0.9)

    def test_noise_schedule_applied(self, rng):
        opt = DpSgdOptimizer(0.1, 1.0, 5.0, rng=0)
        assert schedule(opt, noise_multiplier=LinearDecay(5.0, 2.5, 1)) is opt
        grads = rng.normal(size=(4, 3))
        opt.step(np.zeros(3), grads)
        opt.step(np.zeros(3), grads)
        assert opt.noise_multiplier == pytest.approx(2.5)

    def test_rejects_non_dp_optimizer(self):
        with pytest.raises(TypeError, match="not a DP optimizer"):
            schedule(SgdOptimizer(0.1), noise_multiplier=LinearDecay(1.0, 1.0, 1))

    def test_second_schedule_on_same_optimizer_rejected(self):
        opt = schedule(
            DpSgdOptimizer(0.1, 1.0, 1.0, rng=0), learning_rate=LinearDecay(0.1, 0.1, 1)
        )
        with pytest.raises(ValueError, match="already scheduled"):
            schedule(opt, learning_rate=LinearDecay(0.01, 0.01, 1))
        assert len(opt.release_hooks) == 1

    def test_decayed_noise_trains_with_trainer(self):
        """End to end: decaying noise multiplier inside the trainer loop."""
        opt = schedule(
            DpSgdOptimizer(1.0, 0.1, 10.0, rng=1),
            noise_multiplier=LinearDecay(10.0, 0.1, 20),
        )
        Trainer(lr_model(), opt, small_train(), batch_size=32, rng=2).train(20)
        assert opt.noise_multiplier < 10.0

    @pytest.mark.parametrize("path", ["materialize", "ghost", "microbatch"])
    def test_schedule_advances_once_per_release_on_every_path(self, path):
        """Ghost and microbatch lots release through ``step_presummed``; the
        schedule must advance there exactly as on the materialized path."""
        opt = DpSgdOptimizer(
            0.5, 0.1, 1.0, rng=1, grad_mode="ghost" if path == "ghost" else "materialize"
        )
        decay = LinearDecay(1.0, 0.01, 10)
        schedule(opt, learning_rate=decay)
        Trainer(
            lr_model(),
            opt,
            small_train(),
            batch_size=32,
            rng=2,
            microbatch_size=8 if path == "microbatch" else None,
        ).train(10)
        assert opt.releases == 10
        assert opt.learning_rate == decay(9)


def scheduled_trainer(train):
    """A DP-SGD trainer whose sigma decays 4.0 -> 1.0 over 10 releases."""
    accountant, ledger = RdpAccountant(), ReleaseLedger()
    opt = schedule(
        DpSgdOptimizer(
            1.0, 0.1, 4.0, rng=2, momentum=0.9,
            accountant=accountant, sample_rate=32 / len(train), ledger=ledger,
        ),
        noise_multiplier=LinearDecay(4.0, 1.0, 10),
    )
    model = lr_model()
    return Trainer(model, opt, train, batch_size=32, rng=1), model, accountant, ledger


class TestScheduleResume:
    def test_resumed_schedule_continues_where_it_stopped(self, tmp_path):
        """The release count is checkpointed: a run resumed from an
        iteration-5 snapshot goes on at sigma(5), not sigma(0)."""
        train = small_train()
        trainer_a, model_a, accountant_a, ledger_a = scheduled_trainer(train)
        trainer_a.train(10)

        trainer_b, _, _, _ = scheduled_trainer(train)
        trainer_b.train(5, checkpoint_every=5, checkpoint_dir=tmp_path)
        trainer_c, model_c, accountant_c, ledger_c = scheduled_trainer(train)
        trainer_c.train(10, checkpoint_dir=tmp_path)

        sigmas = [sigma for sigma, _, _ in accountant_a.history]
        assert sigmas == pytest.approx([4.0 - 0.3 * step for step in range(10)])
        assert np.array_equal(model_c.get_params(), model_a.get_params())
        assert accountant_c.history == accountant_a.history
        assert ledger_c.head == ledger_a.head

    def test_wrapper_snapshot_refused(self):
        """Snapshots of the former ``ScheduledOptimizer`` wrapper name the
        wrapper's class and lack the schedule's position; the optimizer
        class check refuses them."""
        train = small_train()
        trainer, _, _, _ = scheduled_trainer(train)
        state = capture_training_state(trainer, trainer.train(3), 3)
        state["optimizer_class"] = "ScheduledOptimizer"
        del state["optimizer"]["releases"]
        state["optimizer"]["lot_size"] = None

        fresh, _, _, _ = scheduled_trainer(train)
        with pytest.raises(SnapshotError, match="ScheduledOptimizer"):
            restore_training_state(fresh, state)
