"""Ghost-clipping fast path: parity with the materialized per-sample path.

The ghost path computes the same clipped gradient sum as the materialized
``(B, P)`` path — same norms, same factors, same sum — so with identical
RNG streams entire training runs must agree to floating-point tolerance.
The default ``grad_mode="materialize"`` must stay bit-identical to a
trainer that has never heard of ghost clipping (seed stability).
"""

import warnings

import numpy as np
import pytest

from repro.core import DpSgdOptimizer, GeoDpSgdOptimizer, ImportanceSampling, Trainer
from repro.core.geodp_adam import GeoDpAdamOptimizer
from repro.data import make_cifar_like, make_mnist_like, train_test_split
from repro.models import build_cnn, build_resnet
from repro.privacy.clipping import AutoSClipping, FlatClipping, PsacClipping


@pytest.fixture(scope="module")
def cnn_data():
    data = make_mnist_like(160, rng=0, size=8)
    return train_test_split(data, rng=0)


@pytest.fixture(scope="module")
def resnet_data():
    data = make_cifar_like(160, rng=0, size=8)
    return train_test_split(data, rng=0)


def cnn_model():
    return build_cnn(input_shape=(1, 8, 8), rng=0)


def resnet_model():
    return build_resnet(input_shape=(3, 8, 8), rng=0)


def batch(data, n=16, rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(len(data), size=n, replace=False)
    return data.x[idx], data.y[idx]


class TestCheckGradMode:
    """The optimizer constructor is the one place a ``grad_mode`` is checked."""

    def test_valid(self):
        for mode in ("materialize", "ghost", "sparse"):
            assert DpSgdOptimizer(0.1, 1.0, 1.0, rng=0, grad_mode=mode).grad_mode == mode

    def test_invalid(self):
        with pytest.raises(ValueError, match="grad_mode"):
            DpSgdOptimizer(0.1, 1.0, 1.0, rng=0, grad_mode="magic")


def check_clipped_sum_parity(model, train, make):
    x, y = batch(train)
    losses_ref, grads = model.loss_and_per_sample_gradients(x, y)
    clipped, norms_ref = make().clip_with_norms(grads)
    ref_sum = clipped.sum(axis=0)

    losses, ghost_sum, norms = model.loss_and_clipped_grad_sum(x, y, make())
    assert np.allclose(losses, losses_ref, rtol=1e-12)
    assert np.allclose(norms, norms_ref, rtol=1e-10)
    scale = np.abs(ref_sum).max() + 1e-30
    assert np.abs(ghost_sum - ref_sum).max() / scale <= 1e-8


class TestClippedSumParity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: FlatClipping(0.7),
            lambda: AutoSClipping(0.7),
            lambda: PsacClipping(0.7),
        ],
        ids=["flat", "autos", "psac"],
    )
    def test_loss_and_clipped_grad_sum(self, cnn_data, make):
        check_clipped_sum_parity(cnn_model(), cnn_data[0], make)

    @pytest.mark.parametrize(
        "make",
        [lambda: FlatClipping(0.7), lambda: PsacClipping(0.7)],
        ids=["flat", "psac"],
    )
    def test_resnet_clipped_grad_sum(self, resnet_data, make):
        check_clipped_sum_parity(resnet_model(), resnet_data[0], make)

    def test_empty_batch(self, cnn_data):
        train, _ = cnn_data
        model = cnn_model()
        x = train.x[:0]
        y = train.y[:0]
        losses, summed, norms = model.loss_and_clipped_grad_sum(x, y, FlatClipping(1.0))
        assert losses.shape == (0,)
        assert norms.shape == (0,)
        assert np.array_equal(summed, np.zeros(model.num_params))


def run_training(
    optimizer_factory, train, test, *, grad_mode, iterations=8, model=cnn_model, **kw
):
    """Train with an optimizer built with ``grad_mode`` (``None``: its default)."""
    model = model()
    optimizer = optimizer_factory(**({} if grad_mode is None else {"grad_mode": grad_mode}))
    trainer = Trainer(
        model,
        optimizer,
        train,
        test_data=test,
        batch_size=16,
        rng=5,
        **kw,
    )
    history = trainer.train(iterations)
    return np.asarray(history.losses), model.get_params()


class TestEndToEndParity:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda **kw: DpSgdOptimizer(0.2, FlatClipping(0.7), 0.5, rng=7, **kw),
            lambda **kw: DpSgdOptimizer(0.2, AutoSClipping(0.7), 0.5, rng=7, **kw),
            lambda **kw: GeoDpSgdOptimizer(0.2, 0.7, 0.5, beta=0.1, rng=7, **kw),
            lambda **kw: GeoDpAdamOptimizer(0.05, 0.7, 0.5, beta=0.1, rng=7, **kw),
        ],
        ids=["dpsgd", "dpsgd-autos", "geodp", "geodp-adam"],
    )
    def test_ghost_matches_materialize(self, cnn_data, factory):
        train, test = cnn_data
        losses_m, params_m = run_training(factory, train, test, grad_mode="materialize")
        losses_g, params_g = run_training(factory, train, test, grad_mode="ghost")
        assert np.allclose(losses_m, losses_g, rtol=1e-9, atol=1e-12)
        assert np.allclose(params_m, params_g, rtol=1e-7, atol=1e-10)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda **kw: DpSgdOptimizer(0.2, FlatClipping(0.7), 0.5, rng=7, **kw),
            lambda **kw: GeoDpSgdOptimizer(0.2, 0.7, 0.5, beta=0.1, rng=7, **kw),
        ],
        ids=["dpsgd", "geodp"],
    )
    def test_resnet_ghost_matches_materialize(self, resnet_data, factory):
        train, test = resnet_data
        losses_m, params_m = run_training(
            factory, train, test, grad_mode="materialize", model=resnet_model
        )
        losses_g, params_g = run_training(
            factory, train, test, grad_mode="ghost", model=resnet_model
        )
        assert np.allclose(losses_m, losses_g, rtol=1e-9, atol=1e-12)
        assert np.allclose(params_m, params_g, rtol=1e-7, atol=1e-10)

    def test_microbatch_parity(self, cnn_data):
        train, test = cnn_data
        factory = lambda **kw: DpSgdOptimizer(0.2, AutoSClipping(0.7), 0.5, rng=7, **kw)  # noqa: E731
        losses_m, params_m = run_training(
            factory, train, test, grad_mode="materialize", microbatch_size=4
        )
        losses_g, params_g = run_training(
            factory, train, test, grad_mode="ghost", microbatch_size=4
        )
        assert np.allclose(losses_m, losses_g, rtol=1e-9, atol=1e-12)
        assert np.allclose(params_m, params_g, rtol=1e-7, atol=1e-10)

    def test_poisson_parity(self, cnn_data):
        train, test = cnn_data
        factory = lambda **kw: DpSgdOptimizer(0.2, FlatClipping(0.7), 0.5, rng=7, **kw)  # noqa: E731
        losses_m, params_m = run_training(
            factory, train, test, grad_mode="materialize", sampling="poisson"
        )
        losses_g, params_g = run_training(
            factory, train, test, grad_mode="ghost", sampling="poisson"
        )
        # Identical RNG streams draw identical Poisson batches, so losses
        # (where defined) and final parameters agree.
        both = ~(np.isnan(losses_m) | np.isnan(losses_g))
        assert np.array_equal(np.isnan(losses_m), np.isnan(losses_g))
        assert np.allclose(losses_m[both], losses_g[both], rtol=1e-9, atol=1e-12)
        assert np.allclose(params_m, params_g, rtol=1e-7, atol=1e-10)

    def test_optimizer_grad_mode_inherited(self, cnn_data):
        """The optimizer's ``grad_mode`` alone routes the trainer's lots."""
        from repro.telemetry import MetricsRecorder

        train, test = cnn_data
        opt = DpSgdOptimizer(0.2, FlatClipping(0.7), 0.5, rng=7, grad_mode="ghost")
        trainer = Trainer(
            cnn_model(), opt, train, batch_size=16, rng=5, telemetry=MetricsRecorder()
        )
        trainer.train(2)
        assert trainer.telemetry.counters["ghost_clipped_sums"] == 2


class TestGhostValidation:
    def test_importance_sampling_rejected(self, cnn_data):
        train, _ = cnn_data
        opt = DpSgdOptimizer(0.2, 0.7, 0.5, rng=7, grad_mode="ghost")
        with pytest.raises(ValueError, match="importance sampling"):
            Trainer(
                cnn_model(),
                opt,
                train,
                batch_size=16,
                importance_sampling=ImportanceSampling(0.7),
            )

    def test_supported_clipping_no_warning(self, cnn_data):
        train, _ = cnn_data
        opt = DpSgdOptimizer(0.2, FlatClipping(0.7), 0.5, rng=7, grad_mode="ghost")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Trainer(cnn_model(), opt, train, batch_size=16)


class TestDefaultUnchanged:
    def test_materialize_is_bit_identical_default(self, cnn_data):
        # grad_mode="materialize" must produce exactly the same trajectory
        # as a trainer constructed without the argument (seed stability).
        train, test = cnn_data
        factory = lambda **kw: DpSgdOptimizer(0.2, FlatClipping(0.7), 0.5, rng=7, **kw)  # noqa: E731
        losses_default, params_default = run_training(
            factory, train, test, grad_mode=None
        )
        losses_m, params_m = run_training(factory, train, test, grad_mode="materialize")
        assert np.array_equal(losses_default, losses_m)
        assert np.array_equal(params_default, params_m)


class TestGhostTelemetry:
    def test_counters(self, cnn_data):
        from repro.telemetry import MetricsRecorder

        train, _ = cnn_data
        recorder = MetricsRecorder()
        opt = DpSgdOptimizer(
            0.2, FlatClipping(0.7), 0.5, rng=7, recorder=recorder, grad_mode="ghost"
        )
        trainer = Trainer(cnn_model(), opt, train, batch_size=16, rng=5, telemetry=recorder)
        trainer.train(3)
        assert recorder.counters["ghost_clipped_sums"] == 3
        assert recorder.counters["ghost_samples"] == 3 * 16
