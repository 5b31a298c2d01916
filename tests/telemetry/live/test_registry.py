"""MetricsRegistry: metric kinds, series routing, the recorder mirror.

Two load-bearing properties: histograms over fixed bucket boundaries
count a stream the same however it was sharded across workers and merged
through the recorder, and a bound recorder publishes forward only, so a
checkpoint restore or a late bind never publishes the same step twice.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import DpSgdOptimizer, Trainer
from repro.data import make_mnist_like
from repro.models import build_logistic_regression
from repro.telemetry import MetricsRecorder
from repro.telemetry.live import (
    DEFAULT_LATENCY_BUCKETS,
    HISTOGRAM_SERIES,
    MetricsRegistry,
)


class TestMetricKinds:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("events")
        reg.inc("events", 2.5)
        assert reg.counter("events").value == 3.5

    def test_labelled_counters_are_distinct(self):
        reg = MetricsRegistry()
        reg.inc("fired", labels={"rule": "a"})
        reg.inc("fired", labels={"rule": "b"})
        assert reg.counter("fired", {"rule": "a"}).value == 1.0
        assert reg.counter("fired", {"rule": "b"}).value == 1.0

    def test_gauge_window_and_same_step_replacement(self):
        reg = MetricsRegistry()
        g = reg.gauge("eps")
        g.set(1.0, step=3)
        g.set(2.0, step=3)  # same step -> replace, not append
        g.set(3.0, step=4)
        assert g.value == 3.0
        assert g.samples() == [(3, 2.0), (4, 3.0)]

    def test_gauge_window_is_bounded(self):
        reg = MetricsRegistry(gauge_window=8)
        g = reg.gauge("x")
        for i in range(100):
            g.set(float(i), step=i)
        assert len(g.samples()) == 8
        assert g.samples()[-1] == (99, 99.0)

    def test_histogram_buckets_and_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 50.0):
            h.observe(v)
        # le-0.1 gets 0.05 and the boundary value 0.1 itself.
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.cumulative() == [2, 3, 4, 5]
        assert h.count == 5

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("lat", (0.1, 1.0))
        with pytest.raises(ValueError, match="different bounds"):
            reg.histogram("lat", (0.2, 1.0))

    def test_unsorted_bounds_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("bad", (1.0, 0.5))


class TestSeriesRouting:
    def test_diagnostic_series_feed_histograms(self):
        reg = MetricsRegistry()
        reg.observe_series("clipped_fraction", 0.4, step=0)
        key = ("clipped_fraction", ())
        assert key in reg._histograms
        assert reg._histograms[key].bounds == HISTOGRAM_SERIES["clipped_fraction"]
        assert reg.gauge("clipped_fraction").value == 0.4

    def test_seconds_series_feed_latency_histograms(self):
        reg = MetricsRegistry()
        reg.observe_series("runtime_job_seconds", 0.02, step=0)
        assert reg._histograms[("runtime_job_seconds", ())].bounds == (
            DEFAULT_LATENCY_BUCKETS
        )

    def test_plain_series_become_gauges_only(self):
        reg = MetricsRegistry()
        reg.observe_series("loss", 0.8, step=0)
        assert reg.gauge("loss").value == 0.8
        assert not reg._histograms


class TestMergeInvariance:
    #: One deterministic observation stream of 24 "jobs".
    POINTS = [(i, 0.05 * (i % 19)) for i in range(24)]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_recorder_mirror_matches_direct_observation(self, workers):
        """The recorder merge path (shipback) mirrors identically."""
        shards = []
        for w in range(workers):
            rec = MetricsRecorder()
            for i, (step, value) in enumerate(self.POINTS):
                if i % workers == w:
                    rec.record("clipped_fraction", value, step=step)
                    rec.increment("releases")
            shards.append(rec.state_dict())
        parent_rec = MetricsRecorder()
        reg = MetricsRegistry()
        parent_rec.bind_registry(reg)
        for state in shards:
            parent_rec.merge_state(state)
        if workers == 1:
            direct = MetricsRegistry()
            for step, value in self.POINTS:
                direct.observe_series("clipped_fraction", value, step=step)
                direct.inc("releases")
            assert reg.collect() == direct.collect()
        # Histogram counts are permutation-invariant: identical for all
        # worker counts even though the shards arrive out of step order.
        hist = reg._histograms[("clipped_fraction", ())]
        assert hist.count == len(self.POINTS)
        assert reg.counter("releases").value == len(self.POINTS)


class TestThreadSafetyAndCollectors:
    def test_concurrent_increments_do_not_lose_counts(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.inc("n")
                reg.observe_series("clipped_fraction", 0.5, step=0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n").value == 4000
        assert reg._histograms[("clipped_fraction", ())].count == 4000

    def test_collectors_run_at_collect_time(self):
        reg = MetricsRegistry()
        calls = []
        reg.register_collector(lambda r: (calls.append(1), r.set_gauge("live", 7.0)))
        snapshot = reg.collect()
        assert calls == [1]
        assert any(g["name"] == "live" and g["value"] == 7.0 for g in snapshot["gauges"])


def _trainer(recorder: MetricsRecorder) -> Trainer:
    data = make_mnist_like(256, rng=0, size=8)
    model = build_logistic_regression((1, 8, 8), rng=0)
    optimizer = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2)
    return Trainer(model, optimizer, data, batch_size=32, rng=1, telemetry=recorder)


def _published(reg: MetricsRegistry) -> tuple[float, float, int]:
    """The registry's ``iterations``/``releases`` counters and the
    ``clipped_fraction`` histogram count (0 when never published)."""
    hist = reg._histograms.get(("clipped_fraction", ()))
    return (
        reg.counter("iterations").value,
        reg.counter("releases").value,
        0 if hist is None else hist.count,
    )


class TestForwardOnlyBinding:
    def test_restore_does_not_republish(self, tmp_path):
        """Train to 9, then resume from the iteration-8 snapshot to 14 in
        the same process: the registry counts the 9 + 6 lots this process
        ran, the recorder the run's own 14."""
        rec, reg = MetricsRecorder(), MetricsRegistry()
        rec.bind_registry(reg)
        trainer = _trainer(rec)
        trainer.train(9, checkpoint_every=4, checkpoint_dir=tmp_path)
        assert _published(reg) == (9, 9, 9)
        trainer.train(14, checkpoint_every=4, checkpoint_dir=tmp_path)
        assert rec.counters["iterations"] == 14
        assert [s for s, _ in rec.series["loss"]] == list(range(1, 15))
        assert _published(reg) == (15, 15, 15)

    def test_late_bind_publishes_nothing_retroactively(self):
        rec, reg = MetricsRecorder(), MetricsRegistry()
        trainer = _trainer(rec)
        trainer.train(5)
        rec.bind_registry(reg)
        assert _published(reg) == (0, 0, 0)
        trainer.train(3)
        assert rec.counters["iterations"] == 8
        assert _published(reg) == (3, 3, 3)
