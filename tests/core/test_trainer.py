"""Tests for the training loop."""

import numpy as np
import pytest

from repro.core import (
    DpSgdOptimizer,
    GeoDpSgdOptimizer,
    ImportanceSampling,
    SelectiveUpdateRelease,
    SgdOptimizer,
    Trainer,
)
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression


@pytest.fixture(scope="module")
def small_data():
    data = make_mnist_like(400, rng=0, size=16)
    return train_test_split(data, rng=0)


def lr_model():
    return build_logistic_regression((1, 16, 16), rng=0)


class TestTrainerBasics:
    def test_sgd_reduces_loss(self, small_data):
        train, test = small_data
        trainer = Trainer(lr_model(), SgdOptimizer(1.0), train, batch_size=64, rng=1)
        history = trainer.train(50)
        assert history.iterations == 50
        assert len(history.losses) == 50
        assert np.mean(history.losses[-10:]) < np.mean(history.losses[:10])

    def test_eval_every(self, small_data):
        train, test = small_data
        trainer = Trainer(
            lr_model(), SgdOptimizer(1.0), train, test_data=test, batch_size=64, rng=1
        )
        history = trainer.train(20, eval_every=10)
        assert [it for it, _ in history.test_accuracy] == [10, 20]
        assert history.final_accuracy > 0.2

    def test_final_eval_appended_when_not_aligned(self, small_data):
        train, test = small_data
        trainer = Trainer(
            lr_model(), SgdOptimizer(1.0), train, test_data=test, batch_size=64, rng=1
        )
        history = trainer.train(15, eval_every=10)
        assert [it for it, _ in history.test_accuracy] == [10, 15]

    def test_dp_optimizer_uses_per_sample_path(self, small_data):
        train, _ = small_data
        opt = DpSgdOptimizer(1.0, 0.1, 0.0, rng=2)
        history = Trainer(lr_model(), opt, train, batch_size=64, rng=1).train(10)
        assert opt.last_noisy_gradient is not None
        assert len(history.losses) == 10

    def test_invalid_batch_size(self, small_data):
        train, _ = small_data
        with pytest.raises(ValueError, match="batch_size"):
            Trainer(lr_model(), SgdOptimizer(1.0), train, batch_size=10**6)

    def test_invalid_iterations(self, small_data):
        train, _ = small_data
        trainer = Trainer(lr_model(), SgdOptimizer(1.0), train, batch_size=32)
        with pytest.raises(ValueError):
            trainer.train(0)

    def test_evaluate_without_test_data(self, small_data):
        train, _ = small_data
        trainer = Trainer(lr_model(), SgdOptimizer(1.0), train, batch_size=32)
        with pytest.raises(ValueError, match="test_data"):
            trainer.evaluate()

    def test_evaluate_chunk_boundaries_agree(self, small_data, monkeypatch):
        """Chunk sizes 1, n and n+1 must all produce the same accuracy."""
        import repro.core.trainer as trainer_module

        train, test = small_data
        trainer = Trainer(
            lr_model(), SgdOptimizer(1.0), train, test_data=test, batch_size=32
        )
        n = len(test)
        reference = trainer.evaluate()
        for chunk in (1, n, n + 1):
            monkeypatch.setattr(trainer_module, "EVAL_CHUNK", chunk)
            assert trainer.evaluate() == reference

    def test_history_final_properties_raise_when_empty(self):
        from repro.core import TrainingHistory

        with pytest.raises(ValueError):
            TrainingHistory().final_loss
        with pytest.raises(ValueError):
            TrainingHistory().final_accuracy

    def test_deterministic_given_seeds(self, small_data):
        train, _ = small_data

        def run():
            opt = DpSgdOptimizer(1.0, 0.1, 1.0, rng=5)
            model = lr_model()
            Trainer(model, opt, train, batch_size=32, rng=6).train(5)
            return model.get_params()

        assert np.allclose(run(), run())


class TestTechniquesIntegration:
    def test_importance_sampling_runs(self, small_data):
        train, _ = small_data
        opt = DpSgdOptimizer(1.0, 0.1, 0.5, rng=2)
        trainer = Trainer(
            lr_model(),
            opt,
            train,
            batch_size=32,
            rng=1,
            importance_sampling=ImportanceSampling(0.1),
        )
        history = trainer.train(10)
        assert len(history.losses) == 10

    def test_sur_rollback(self, small_data):
        """With huge noise SUR must reject some updates; the model only keeps
        accepted ones."""
        train, _ = small_data
        sur = SelectiveUpdateRelease(threshold=0.0)
        opt = DpSgdOptimizer(5.0, 0.1, 50.0, rng=2)
        trainer = Trainer(lr_model(), opt, train, batch_size=32, rng=1, sur=sur)
        history = trainer.train(20)
        assert history.sur_acceptance_rate is not None
        assert history.sur_acceptance_rate < 1.0
        assert sur.accepted + sur.rejected == 20

    def test_sur_improves_noisy_training(self, small_data):
        """SUR should not hurt (and typically helps) under heavy noise."""
        train, test = small_data

        def final_acc(use_sur):
            sur = SelectiveUpdateRelease() if use_sur else None
            opt = DpSgdOptimizer(2.0, 0.1, 20.0, rng=3)
            model = lr_model()
            t = Trainer(model, opt, train, test_data=test, batch_size=64, rng=4, sur=sur)
            return t.train(40, eval_every=40).final_accuracy

        assert final_acc(True) >= final_acc(False) - 0.05

    def test_geodp_with_techniques(self, small_data):
        train, _ = small_data
        opt = GeoDpSgdOptimizer(
            1.0, 0.1, 1.0, beta=0.1, rng=2, sensitivity_mode="per_angle"
        )
        trainer = Trainer(
            lr_model(),
            opt,
            train,
            batch_size=32,
            rng=1,
            importance_sampling=ImportanceSampling(0.1),
            sur=SelectiveUpdateRelease(),
        )
        assert len(trainer.train(8).losses) == 8


class TestTrainingHistoryEdgeCases:
    def test_defaults(self):
        from repro.core import TrainingHistory

        history = TrainingHistory()
        assert history.iterations == 0
        assert history.losses == []
        assert history.test_accuracy == []
        assert history.sur_acceptance_rate is None

    def test_final_properties_return_last_values(self):
        from repro.core import TrainingHistory

        history = TrainingHistory(
            losses=[2.0, 1.0], test_accuracy=[(5, 0.4), (10, 0.6)]
        )
        assert history.final_loss == 1.0
        assert history.final_accuracy == 0.6

    def test_iterations_matches_losses(self, small_data):
        train, _ = small_data
        trainer = Trainer(lr_model(), SgdOptimizer(1.0), train, batch_size=64, rng=1)
        for n in (1, 7):
            history = trainer.train(n)
            assert history.iterations == n == len(history.losses)

    def test_no_eval_means_final_accuracy_raises(self, small_data):
        """eval_every=0 records no accuracy even when test data is attached."""
        train, test = small_data
        trainer = Trainer(
            lr_model(), SgdOptimizer(1.0), train, test_data=test, batch_size=64, rng=1
        )
        history = trainer.train(3)
        assert history.test_accuracy == []
        with pytest.raises(ValueError, match="accuracy"):
            history.final_accuracy

    def test_sur_rate_none_without_sur(self, small_data):
        train, _ = small_data
        trainer = Trainer(lr_model(), SgdOptimizer(1.0), train, batch_size=64, rng=1)
        assert trainer.train(2).sur_acceptance_rate is None

    def test_sur_rate_is_one_before_any_decision(self):
        assert SelectiveUpdateRelease().acceptance_rate == 1.0

    def test_sur_rate_matches_counters(self, small_data):
        train, _ = small_data
        sur = SelectiveUpdateRelease(threshold=0.0)
        opt = DpSgdOptimizer(5.0, 0.1, 50.0, rng=2)
        history = Trainer(
            lr_model(), opt, train, batch_size=32, rng=1, sur=sur
        ).train(12)
        assert history.sur_acceptance_rate == sur.accepted / 12
        assert sur.accepted + sur.rejected == 12

    def test_sur_rate_accumulates_across_train_calls(self, small_data):
        """The SUR object owns the counters, so a reused trainer reports the
        cumulative rate — callers wanting a fresh rate pass a fresh SUR."""
        train, _ = small_data
        sur = SelectiveUpdateRelease(threshold=0.0)
        opt = DpSgdOptimizer(5.0, 0.1, 50.0, rng=2)
        trainer = Trainer(lr_model(), opt, train, batch_size=32, rng=1, sur=sur)
        trainer.train(5)
        history = trainer.train(5)
        assert sur.accepted + sur.rejected == 10
        assert history.sur_acceptance_rate == sur.accepted / 10


class TestSurMomentumRollback:
    """A SUR-rejected step must roll back the optimizer's update state
    (momentum velocity, Adam moments), not just the parameters — otherwise
    the rejected noisy gradient keeps steering later accepted steps."""

    ALWAYS_REJECT = -1e9  # accept iff delta_loss <= threshold: never

    def test_rejected_steps_leave_velocity_untouched(self, small_data):
        train, _ = small_data
        model = lr_model()
        initial = model.get_params().copy()
        optimizer = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2, momentum=0.9)
        trainer = Trainer(
            model, optimizer, train, batch_size=32, rng=1,
            sur=SelectiveUpdateRelease(threshold=self.ALWAYS_REJECT),
        )
        trainer.train(5)
        assert trainer.sur.rejected == 5
        assert np.array_equal(model.get_params(), initial)
        assert optimizer._velocity is None  # pre-first-step state, every time

    def test_rejected_steps_leave_adam_moments_untouched(self, small_data):
        from repro.core.geodp_adam import GeoDpAdamOptimizer

        train, _ = small_data
        model = lr_model()
        optimizer = GeoDpAdamOptimizer(0.1, 0.1, 1.0, beta=0.1, rng=2)
        trainer = Trainer(
            model, optimizer, train, batch_size=32, rng=1,
            sur=SelectiveUpdateRelease(threshold=self.ALWAYS_REJECT),
        )
        trainer.train(4)
        assert optimizer._m is None
        assert optimizer._v is None
        assert optimizer._t == 0

    def test_rollback_on_scheduled_optimizer(self, small_data):
        """A rejected update rolls back the momentum of a scheduled optimizer;
        the schedule still advances, since the release happened."""
        from repro.core.schedules import LinearDecay, schedule

        train, _ = small_data
        model = lr_model()
        optimizer = schedule(
            DpSgdOptimizer(1.0, 0.1, 1.0, rng=2, momentum=0.9),
            learning_rate=LinearDecay(1.0, 0.5, 2),
        )
        trainer = Trainer(
            model,
            optimizer,
            train,
            batch_size=32,
            rng=1,
            sur=SelectiveUpdateRelease(threshold=self.ALWAYS_REJECT),
        )
        trainer.train(3)
        assert optimizer._velocity is None
        assert optimizer.releases == 3
        assert optimizer.learning_rate == 0.5

    def test_accepted_steps_advance_velocity_normally(self, small_data):
        train, _ = small_data
        model = lr_model()
        optimizer = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2, momentum=0.9)
        trainer = Trainer(
            model, optimizer, train, batch_size=32, rng=1,
            sur=SelectiveUpdateRelease(threshold=1e9),  # always accept
        )
        trainer.train(3)
        assert trainer.sur.accepted == 3
        assert optimizer._velocity is not None
        assert np.any(optimizer._velocity != 0)
