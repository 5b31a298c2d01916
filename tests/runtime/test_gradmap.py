"""Tests for the forked parallel per-sample gradient map."""

import numpy as np
import pytest

from repro.core import DpSgdOptimizer, SgdOptimizer, Trainer
from repro.data import make_mnist_like
from repro.models import build_logistic_regression, build_mlp
from repro.nn import Dropout
from repro.privacy.clipping import (
    AdaptiveQuantileClipping,
    AutoSClipping,
    FlatClipping,
    PsacClipping,
)
from repro.runtime import chunk_ranges, parallel_available
from repro.runtime.gradmap import ParallelGradientMap
from repro.telemetry import MetricsRecorder

needs_fork = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def tiny_data():
    return make_mnist_like(120, rng=0, size=8)


def tiny_model():
    return build_logistic_regression((1, 8, 8), rng=0)


def train_history(data, *, workers=None, clipping=None, iterations=4):
    clipping = clipping if clipping is not None else FlatClipping(0.5)
    opt = DpSgdOptimizer(0.5, clipping, 0.8, rng=3)
    trainer = Trainer(
        tiny_model(),
        opt,
        data,
        batch_size=60,
        microbatch_size=16,
        parallel_grad_workers=workers,
        rng=5,
    )
    with trainer:
        history = trainer.train(iterations)
        params = trainer.model.get_params().copy()
    return history, params


@needs_fork
class TestTrainerParity:
    @pytest.mark.parametrize(
        "clipping",
        [
            pytest.param(lambda: FlatClipping(0.5), id="flat"),
            pytest.param(
                lambda: AdaptiveQuantileClipping(0.5, rng=11), id="adaptive"
            ),
            pytest.param(
                lambda: AutoSClipping(0.5), id="auto-s", marks=pytest.mark.slow
            ),
            pytest.param(
                lambda: PsacClipping(0.5), id="psac", marks=pytest.mark.slow
            ),
        ],
    )
    def test_parallel_matches_serial(self, tiny_data, clipping):
        serial_hist, serial_params = train_history(tiny_data, clipping=clipping())
        par_hist, par_params = train_history(
            tiny_data, workers=2, clipping=clipping()
        )
        assert par_hist.losses == serial_hist.losses
        assert np.array_equal(par_params, serial_params)

    def test_adaptive_threshold_trajectory_matches(self, tiny_data):
        serial = AdaptiveQuantileClipping(0.5, rng=11)
        parallel = AdaptiveQuantileClipping(0.5, rng=11)
        train_history(tiny_data, clipping=serial)
        train_history(tiny_data, workers=2, clipping=parallel)
        assert parallel.history == serial.history
        assert parallel.clip_norm == serial.clip_norm


@needs_fork
class TestMapChunks:
    def test_matches_serial_chunk_loop(self, tiny_data):
        model = tiny_model()
        clipping = FlatClipping(0.3)
        params = model.get_params().copy()
        idx = np.arange(48)
        chunks = [idx[a:b] for a, b in chunk_ranges(len(idx), 16)]

        gradmap = ParallelGradientMap(model, tiny_data, workers=2)
        try:
            outs = gradmap.map_chunks(params, chunks, clipping)
        finally:
            gradmap.close()
        assert outs is not None and len(outs) == len(chunks)

        for chunk, (clipped_sum, losses, norms) in zip(chunks, outs):
            model.set_params(params)
            ref_losses, grads = model.loss_and_per_sample_gradients(
                tiny_data.x[chunk], tiny_data.y[chunk]
            )
            ref_clipped, ref_norms = clipping.clip_with_norms(grads)
            assert np.array_equal(clipped_sum, ref_clipped.sum(axis=0))
            assert np.array_equal(losses, ref_losses)
            assert np.array_equal(norms, ref_norms)

    def test_empty_chunks(self, tiny_data):
        gradmap = ParallelGradientMap(tiny_model(), tiny_data, workers=2)
        try:
            assert gradmap.map_chunks(np.zeros(3), [], FlatClipping(1.0)) == []
        finally:
            gradmap.close()

    def test_failure_disables_after_budget(self, tiny_data):
        """An unpicklable clipping object trips the fallback, then disables."""

        class Unpicklable(FlatClipping):
            def __init__(self):
                super().__init__(1.0)
                self.trap = lambda: None

        recorder = MetricsRecorder()
        gradmap = ParallelGradientMap(
            tiny_model(), tiny_data, workers=2,
            telemetry=recorder, max_pool_failures=2,
        )
        try:
            params = tiny_model().get_params()
            chunks = [np.arange(4)]
            assert gradmap.map_chunks(params, chunks, Unpicklable()) is None
            assert gradmap.available
            assert gradmap.map_chunks(params, chunks, Unpicklable()) is None
            assert not gradmap.available  # budget exhausted -> disabled
            assert gradmap.map_chunks(params, chunks, FlatClipping(1.0)) is None
            assert recorder.counters["gradmap_fallbacks"] == 2
        finally:
            gradmap.close()

    def test_close_is_idempotent_and_disables(self, tiny_data):
        gradmap = ParallelGradientMap(tiny_model(), tiny_data, workers=2)
        gradmap.close()
        gradmap.close()
        assert not gradmap.available
        assert (
            gradmap.map_chunks(np.zeros(3), [np.arange(2)], FlatClipping(1.0))
            is None
        )


class TestValidation:
    def test_rejects_running_stats_model(self, tiny_data):
        class FakeBatchNorm:
            running_mean = None
            running_var = None

        class FakeModel:
            layers = [FakeBatchNorm()]

        with pytest.raises(ValueError, match="running statistics"):
            ParallelGradientMap(FakeModel(), tiny_data, workers=2)

    def test_rejects_dropout_with_positive_rate(self, tiny_data):
        model = build_mlp((1, 8, 8), [16], dropout=0.3, rng=0)
        with pytest.raises(ValueError, match=r"Dropout\(rate=0.3\)"):
            ParallelGradientMap(model, tiny_data, workers=2)
        for layer in model.layers:
            if isinstance(layer, Dropout):
                layer.rate = 0.0  # draws no masks, so the serial order is moot
        ParallelGradientMap(model, tiny_data, workers=2).close()

    def test_single_worker_map_is_disabled(self, tiny_data):
        gradmap = ParallelGradientMap(tiny_model(), tiny_data, workers=1)
        assert not gradmap.available

    def test_trainer_rejects_bad_worker_count(self, tiny_data):
        with pytest.raises(ValueError, match="parallel_grad_workers"):
            Trainer(
                tiny_model(),
                DpSgdOptimizer(0.5, 0.5, 1.0, rng=0),
                tiny_data,
                batch_size=60,
                microbatch_size=16,
                parallel_grad_workers=0,
            )

    def test_trainer_requires_microbatch_size(self, tiny_data):
        with pytest.raises(ValueError, match="microbatch_size"):
            Trainer(
                tiny_model(),
                DpSgdOptimizer(0.5, 0.5, 1.0, rng=0),
                tiny_data,
                batch_size=60,
                parallel_grad_workers=2,
            )

    def test_trainer_rejects_augment(self, tiny_data):
        with pytest.raises(ValueError, match="augment"):
            Trainer(
                tiny_model(),
                DpSgdOptimizer(0.5, 0.5, 1.0, rng=0),
                tiny_data,
                batch_size=60,
                microbatch_size=16,
                parallel_grad_workers=2,
                augment=lambda x, rng: x,
            )

    def test_trainer_requires_clipping_optimizer(self, tiny_data):
        class AccumulatingNoClip(SgdOptimizer):
            # Supports accumulation but exposes no clipping strategy.
            def clipped_sum(self, grads):
                return grads.sum(axis=0)

        with pytest.raises(ValueError, match="clipping"):
            Trainer(
                tiny_model(),
                AccumulatingNoClip(0.5),
                tiny_data,
                batch_size=60,
                microbatch_size=16,
                parallel_grad_workers=2,
            )
