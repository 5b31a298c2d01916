"""Tests for gradient accumulation and Poisson sampling."""

import numpy as np
import pytest

from repro.core import (
    DpAdamOptimizer,
    DpSgdOptimizer,
    GeoDpAdamOptimizer,
    GeoDpSgdOptimizer,
    Trainer,
)
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.privacy.clipping import FlatClipping


@pytest.fixture(scope="module")
def small_data():
    data = make_mnist_like(300, rng=0, size=16)
    return train_test_split(data, rng=0)


def lr_model():
    return build_logistic_regression((1, 16, 16), rng=0)


#: Poisson lots run on every DP optimizer: both mechanisms, both update rules.
POISSON_OPTIMIZERS = {
    "dpsgd": lambda sigma: DpSgdOptimizer(1.0, 0.1, sigma, rng=2),
    "geodp_adam": lambda sigma: GeoDpAdamOptimizer(0.05, 0.1, sigma, beta=0.1, rng=2),
    "dp_adam": lambda sigma: DpAdamOptimizer(0.05, 0.1, sigma, rng=2),
}


class TestGradientAccumulation:
    def test_presummed_equals_direct_zero_noise(self, rng):
        """Accumulated clipped sums give exactly the direct result at sigma=0."""
        grads = rng.normal(size=(32, 20)) * 0.5
        opt = DpSgdOptimizer(0.1, 0.1, 0.0, rng=0)
        direct = opt.noisy_gradient(grads)
        total = opt.clipped_sum(grads[:16]) + opt.clipped_sum(grads[16:])
        accumulated = opt.noisy_gradient_presummed(total, 32)
        assert np.allclose(direct, accumulated)

    def test_geodp_presummed_equals_direct_zero_noise(self, rng):
        grads = rng.normal(size=(32, 20)) * 0.5
        opt = GeoDpSgdOptimizer(0.1, 0.1, 0.0, beta=0.5, rng=0)
        direct = opt.noisy_gradient(grads)
        total = opt.clipped_sum(grads[:10]) + opt.clipped_sum(grads[10:])
        accumulated = opt.noisy_gradient_presummed(total, 32)
        assert np.allclose(direct, accumulated, atol=1e-10)

    def test_trainer_microbatching_matches_full_batch(self, small_data):
        """With sigma = 0, microbatched training equals full-batch training."""
        train, _ = small_data

        def run(microbatch):
            opt = DpSgdOptimizer(1.0, 0.1, 0.0, rng=2)
            model = lr_model()
            Trainer(
                model, opt, train, batch_size=64, rng=3, microbatch_size=microbatch
            ).train(5)
            return model.get_params()

        assert np.allclose(run(None), run(16))

    def test_trainer_microbatching_with_noise_runs(self, small_data):
        train, _ = small_data
        opt = GeoDpSgdOptimizer(
            1.0, 0.1, 1.0, beta=0.1, rng=2, sensitivity_mode="per_angle"
        )
        trainer = Trainer(lr_model(), opt, train, batch_size=64, rng=3, microbatch_size=8)
        history = trainer.train(5)
        assert len(history.losses) == 5
        assert np.isfinite(history.losses).all()

    def test_microbatch_validation(self, small_data):
        train, _ = small_data
        with pytest.raises(ValueError, match="microbatch_size"):
            Trainer(
                lr_model(), DpSgdOptimizer(1.0, 0.1, 0.0), train,
                batch_size=32, microbatch_size=0,
            )


class TestPoissonSampling:
    @pytest.mark.parametrize("name", sorted(POISSON_OPTIMIZERS))
    def test_lot_averages_over_batch_size(self, small_data, name, monkeypatch):
        """A Poisson lot releases its clipped sum averaged over B, whatever
        count it drew (Eq. 8's fixed denominator)."""
        import repro.data.sampling as sampling

        train, _ = small_data
        draw, drawn = sampling.poisson_indices, []
        monkeypatch.setattr(
            sampling, "poisson_indices", lambda *args: drawn.append(draw(*args)) or drawn[-1]
        )
        opt = POISSON_OPTIMIZERS[name](0.0)
        Trainer(lr_model(), opt, train, batch_size=32, rng=3, sampling="poisson").train(1)
        (idx,) = drawn
        assert len(idx) != 32
        _, grads = lr_model().loss_and_per_sample_gradients(*train.batch(idx))
        expected = FlatClipping(0.1).clip(grads).sum(axis=0) / 32
        np.testing.assert_allclose(opt.last_noisy_gradient, expected, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(POISSON_OPTIMIZERS))
    def test_training_runs_and_tolerates_empty_batches(self, small_data, name):
        train, _ = small_data
        # Tiny expected lot -> empty batches occur; training must survive.
        opt = POISSON_OPTIMIZERS[name](0.5)
        trainer = Trainer(lr_model(), opt, train, batch_size=1, rng=3, sampling="poisson")
        history = trainer.train(40)
        assert history.iterations == 40
        # Empty batches record NaN losses; at least some batches were real.
        assert np.sum(~np.isnan(history.losses)) > 0

    def test_fixed_denominator_used(self):
        """The release divides by the denominator it is given, not the
        number of summed rows."""
        opt = DpSgdOptimizer(1.0, 1.0, 0.0, rng=0)
        grads = np.ones((10, 4)) * 0.01
        noisy = opt.release(opt.clipped_sum(grads), 100)
        assert np.allclose(noisy, 10 * 0.01 / 100)

    def test_release_refuses_denominator_below_one(self):
        opt = DpSgdOptimizer(1.0, 1.0, 1.0, rng=0)
        with pytest.raises(ValueError, match="denominator"):
            opt.release(np.zeros(4), 0)
        with pytest.raises(ValueError, match="denominator"):
            opt.noisy_gradient(np.zeros((0, 4)))
        assert opt.releases == 0

    def test_poisson_requires_dp_optimizer(self, small_data):
        from repro.core import SgdOptimizer

        train, _ = small_data
        with pytest.raises(ValueError, match="per-sample"):
            Trainer(
                lr_model(), SgdOptimizer(1.0), train, batch_size=32, sampling="poisson"
            )

    def test_unknown_sampling(self, small_data):
        train, _ = small_data
        with pytest.raises(ValueError, match="sampling"):
            Trainer(
                lr_model(), DpSgdOptimizer(1.0, 0.1, 1.0), train,
                batch_size=32, sampling="stratified",
            )
