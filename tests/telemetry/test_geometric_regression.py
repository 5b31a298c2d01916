"""Geometric regression test (paper Fig. 1 / Theorem 2).

At equal privacy budget, GeoDP's released gradients must stay closer in
*direction* to the true averaged gradient than DP-SGD's.  The telemetry
subsystem records the angular deviation of every release, so the paper's
central geometric claim becomes a fixed-seed regression test: if a change
to the optimizers or the noise calibration erodes GeoDP's directional
advantage, the mean recorded angular deviation flips and this test fails.
"""

import numpy as np
import pytest

from repro.core import DpSgdOptimizer, GeoDpSgdOptimizer, Trainer
from repro.data import make_mnist_like, train_test_split
from repro.experiments import run_trace
from repro.models import build_logistic_regression
from repro.telemetry import MetricsRecorder, load_traces


def _mean_angular_deviation(optimizer) -> float:
    data = make_mnist_like(300, rng=0, size=10)
    train, _ = train_test_split(data, rng=0)
    recorder = MetricsRecorder()
    model = build_logistic_regression((1, 10, 10), rng=0)
    Trainer(model, optimizer, train, batch_size=64, rng=7, telemetry=recorder).train(30)
    values = recorder.values("angular_deviation")
    assert len(values) == 30
    return float(np.mean(values))


class TestAngularDeviation:
    def test_geodp_beats_dpsgd_at_equal_budget(self):
        """GeoDP's mean angular deviation must not exceed DP-SGD's.

        Same clipping threshold, noise multiplier, batches and noise seed;
        only the perturbation geometry differs.  The observed margin is
        large (roughly 0.07 rad vs 1.3 rad on this workload), so the
        factor-of-two guard below leaves headroom for numeric drift while
        still catching any real regression.
        """
        dp = _mean_angular_deviation(DpSgdOptimizer(1.0, 0.1, 1.0, rng=3))
        geo = _mean_angular_deviation(
            GeoDpSgdOptimizer(
                1.0, 0.1, 1.0, beta=0.1, rng=3, sensitivity_mode="per_angle"
            )
        )
        assert geo <= dp
        assert geo <= 0.5 * dp

    def test_dpsgd_deviation_grows_with_sigma(self):
        """More noise at fixed sensitivity means worse direction preservation."""
        quiet = _mean_angular_deviation(DpSgdOptimizer(1.0, 0.1, 0.25, rng=3))
        loud = _mean_angular_deviation(DpSgdOptimizer(1.0, 0.1, 4.0, rng=3))
        assert quiet < loud


@pytest.mark.slow
class TestTraceExperiment:
    def test_smoke_trace_round_trips_and_preserves_verdict(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = run_trace("smoke", rng=0, telemetry=path)
        recorders = result["recorders"]

        dp = np.mean(recorders["dpsgd"].values("angular_deviation"))
        geo = np.mean(recorders["geodp"].values("angular_deviation"))
        assert geo <= dp

        loaded = load_traces(path)
        assert sorted(loaded) == ["dpsgd", "geodp"]
        for run, recorder in recorders.items():
            assert loaded[run].series == recorder.series
            assert loaded[run].counters == recorder.counters
            iterations = int(loaded[run].counters["iterations"])
            assert [s for s, _ in loaded[run].series["loss"]] == list(
                range(1, iterations + 1)
            )
