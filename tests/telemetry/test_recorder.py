"""Tests for MetricsRecorder and the summary reporter."""

import numpy as np
import pytest

from repro.telemetry import MetricsRecorder, metric_summary, summarize
from tests.conftest import series_at


class TestSeries:
    def test_record_appends_points(self):
        rec = MetricsRecorder()
        rec.record("loss", 2.0)
        rec.record("loss", 1.5)
        assert rec.series["loss"] == [(0, 2.0), (1, 1.5)]
        assert rec.values("loss") == [2.0, 1.5]

    def test_explicit_step(self):
        rec = MetricsRecorder()
        rec.record("acc", 0.5, step=10)
        assert rec.series["acc"] == [(10, 0.5)]

    def test_values_of_unknown_series_empty(self):
        assert MetricsRecorder().values("nope") == []

    def test_values_are_floats(self):
        rec = MetricsRecorder()
        rec.record("x", np.float32(1.25))
        assert isinstance(rec.values("x")[0], float)


class TestCounters:
    def test_increment(self):
        rec = MetricsRecorder()
        rec.increment("steps")
        rec.increment("steps", 2)
        assert rec.counters["steps"] == 3


class TestSteps:
    def test_step_captures_metrics(self):
        """A scalar recorded in an open step is a series point keyed by the
        step's iteration; the recorder keeps no list of closed steps."""
        rec = MetricsRecorder()
        rec.start_step(1)
        rec.record("loss", 3.0)
        assert rec.end_step() == 1
        assert rec.series["loss"] == [(1, 3.0)]
        assert series_at(rec, 1) == {"loss": 3.0}
        assert not hasattr(rec, "events")
        assert "events" not in rec.state_dict()

    def test_end_step_hooks_receive_the_iteration(self):
        rec = MetricsRecorder()
        seen = []
        rec.add_end_step_hook(seen.append)
        for iteration in (4, 5):
            rec.start_step(iteration)
            rec.end_step()
        assert seen == [4, 5]

    def test_double_start_raises(self):
        rec = MetricsRecorder()
        rec.start_step(1)
        with pytest.raises(RuntimeError, match="still open"):
            rec.start_step(2)

    def test_end_without_start_raises(self):
        with pytest.raises(RuntimeError, match="no step is open"):
            MetricsRecorder().end_step()

    def test_last_write_wins_within_step(self):
        rec = MetricsRecorder()
        rec.start_step(5)
        rec.record("x", 1.0)
        rec.record("x", 2.0)
        rec.end_step()
        assert series_at(rec, 5)["x"] == 2.0
        assert rec.series["x"] == [(5, 1.0), (5, 2.0)]  # both points kept


class TestState:
    def test_state_with_events_loads(self):
        """Older snapshots carry a list of step events (some with a copy of
        the step's scalars); loading ignores it."""
        state = {
            "series": {"loss": [[1, 3.0], [2, 2.5]]},
            "counters": {"iterations": 2.0},
            "events": [{"iteration": 1, "metrics": {"loss": 3.0}}, {"iteration": 2}],
        }
        rec = MetricsRecorder()
        rec.load_state_dict(state)
        assert rec.series == {"loss": [(1, 3.0), (2, 2.5)]}
        assert rec.counters == {"iterations": 2.0}
        assert rec.state_dict() == {
            "series": {"loss": [[1, 3.0], [2, 2.5]]},
            "counters": {"iterations": 2.0},
        }
        merged = MetricsRecorder()
        merged.merge_state(state)
        assert merged.state_dict() == rec.state_dict()


class TestReport:
    def test_metric_summary(self):
        rec = MetricsRecorder()
        for v in (1.0, 3.0, 2.0):
            rec.record("loss", v)
        stats = metric_summary(rec, "loss")
        assert stats["count"] == 3
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["last"] == 2.0

    def test_metric_summary_ignores_nan(self):
        rec = MetricsRecorder()
        rec.record("loss", float("nan"))
        rec.record("loss", 4.0)
        assert metric_summary(rec, "loss")["mean"] == 4.0

    def test_metric_summary_unknown_raises(self):
        with pytest.raises(KeyError):
            metric_summary(MetricsRecorder(), "nope")

    def test_summarize_contains_sections(self):
        rec = MetricsRecorder()
        rec.record("loss", 1.0)
        rec.increment("steps")
        text = summarize(rec, title="demo")
        assert "demo" in text
        assert "loss" in text and "steps" in text

    def test_summarize_empty(self):
        assert "no telemetry" in summarize(MetricsRecorder())
