"""Tests for gradient accumulation, Poisson sampling and per-layer clipping."""

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
from repro.privacy import PerLayerClipping


@pytest.fixture(scope="module")
def small_data():
    data = make_mnist_like(300, rng=0, size=16)
    return train_test_split(data, rng=0)


def lr_model():
    return build_logistic_regression((1, 16, 16), rng=0)


#: Every DP optimizer has ``lot_size``, so Poisson sampling pins it for all.
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
    def test_lot_size_auto_configured(self, small_data, name):
        train, _ = small_data
        opt = POISSON_OPTIMIZERS[name](1.0)
        Trainer(lr_model(), opt, train, batch_size=32, rng=3, sampling="poisson")
        assert opt.lot_size == 32

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
        """With lot_size set, the division ignores the realised count."""
        opt = DpSgdOptimizer(1.0, 1.0, 0.0, rng=0, lot_size=100)
        grads = np.ones((10, 4)) * 0.01
        noisy = opt.noisy_gradient(grads)
        assert np.allclose(noisy, 10 * 0.01 / 100)

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


class TestPerLayerClipping:
    def test_partition_required(self, rng):
        clipper = PerLayerClipping([slice(0, 3)], 1.0)
        with pytest.raises(ValueError, match="partition"):
            clipper.clip(rng.normal(size=(4, 5)))

    def test_each_block_bounded(self, rng):
        blocks = [slice(0, 4), slice(4, 10)]
        clipper = PerLayerClipping(blocks, [0.5, 2.0])
        clipped = clipper.clip(rng.normal(size=(20, 10)) * 10)
        assert np.all(np.linalg.norm(clipped[:, :4], axis=1) <= 0.5 + 1e-9)
        assert np.all(np.linalg.norm(clipped[:, 4:], axis=1) <= 2.0 + 1e-9)

    def test_total_sensitivity(self):
        clipper = PerLayerClipping([slice(0, 2), slice(2, 4)], [3.0, 4.0])
        assert clipper.sensitivity() == pytest.approx(5.0)

    def test_scalar_threshold_broadcast(self, rng):
        clipper = PerLayerClipping([slice(0, 2), slice(2, 5)], 1.0)
        clipped = clipper.clip(rng.normal(size=(6, 5)) * 10)
        assert np.all(np.linalg.norm(clipped, axis=1) <= clipper.sensitivity() + 1e-9)

    def test_accepts_layer_slices_tuples(self):
        model = lr_model()
        clipper = PerLayerClipping(model.layer_slices(), 0.1)
        grads = np.random.default_rng(0).normal(size=(4, model.num_params))
        clipped = clipper.clip(grads)
        assert clipped.shape == grads.shape

    def test_dp_training_with_per_layer_clipping(self, small_data):
        train, _ = small_data
        model = lr_model()
        clipper = PerLayerClipping(model.layer_slices(), 0.1)
        opt = DpSgdOptimizer(1.0, clipper, 1.0, rng=2)
        history = Trainer(model, opt, train, batch_size=32, rng=3).train(5)
        assert len(history.losses) == 5

    def test_mismatched_thresholds(self):
        with pytest.raises(ValueError, match="thresholds"):
            PerLayerClipping([slice(0, 2), slice(2, 4)], [1.0, 2.0, 3.0])


class TestModelSlices:
    def test_param_slices_cover_everything(self):
        model = lr_model()
        slices = model.param_slices()
        covered = sum(s.stop - s.start for _, s in slices)
        assert covered == model.num_params
        assert slices[0][1].start == 0

    def test_layer_slices_merge_params(self):
        model = lr_model()  # Flatten (no params) + Linear (weight+bias)
        layer_slices = model.layer_slices()
        assert len(layer_slices) == 1  # only the Linear layer has params
        _, block = layer_slices[0]
        assert block == slice(0, model.num_params)

    def test_cnn_layer_slices(self):
        from repro.models import build_cnn

        model = build_cnn((1, 16, 16), channels=(2, 4), rng=0)
        layer_slices = model.layer_slices()
        assert len(layer_slices) == 3  # conv, conv, linear
        total = sum(s.stop - s.start for _, s in layer_slices)
        assert total == model.num_params
