"""Tests for JSONL trace export/load and the underlying JSONL helpers."""

import json

import pytest

from repro.telemetry import MetricsRecorder, export_trace, load_trace, load_traces
from repro.utils.serialization import load_jsonl, save_jsonl


def make_recorder(offset: float = 0.0) -> MetricsRecorder:
    rec = MetricsRecorder()
    for i in range(1, 4):
        rec.start_step(i)
        rec.record("loss", offset + 1.0 / i)
        rec.end_step()
    rec.record("global", offset + 42.0, step=99)
    rec.increment("releases", 3)
    return rec


def assert_recorders_equal(a: MetricsRecorder, b: MetricsRecorder) -> None:
    assert a.series == b.series
    assert a.counters == b.counters


class TestJsonlHelpers:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.jsonl"
        records = [{"a": 1}, {"b": [1, 2]}]
        save_jsonl(path, records)
        assert load_jsonl(path) == records

    def test_append(self, tmp_path):
        path = tmp_path / "x.jsonl"
        save_jsonl(path, [{"a": 1}])
        save_jsonl(path, [{"b": 2}], append=True)
        assert load_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\n\n{"b":2}\n')
        assert load_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_invalid_line_reports_position(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a":1}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            load_jsonl(path)


class TestTraceRoundTrip:
    def test_single_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = make_recorder()
        export_trace(path, rec)
        assert_recorders_equal(load_trace(path), rec)
        # Phase time is exported only as span lines (from a tracer), and a
        # step's scalars only as series points.
        records = load_jsonl(path)
        assert {r["kind"] for r in records} == {"meta", "series", "counters"}

    def test_file_with_recorder_timers_still_loads(self, tmp_path):
        """Older files carry one ``step`` line per iteration (with a
        ``metrics`` copy of the step's scalars and, while the recorder timed
        phases, its ``timings``) and a ``timers`` line; the loader skips
        them."""
        path = tmp_path / "trace.jsonl"
        save_jsonl(
            path,
            [
                {"kind": "meta", "version": 2, "run": "old"},
                {
                    "kind": "step",
                    "run": "old",
                    "iteration": 1,
                    "metrics": {"loss": 0.5},
                    "timings": {"clip": 0.25},
                },
                {"kind": "series", "run": "old", "name": "loss", "points": [[1, 0.5]]},
                {"kind": "counters", "run": "old", "values": {"iterations": 1.0}},
                {"kind": "timers", "run": "old", "values": {"clip": 0.25}},
            ],
        )
        rec = load_trace(path)
        assert rec.series == {"loss": [(1, 0.5)]}
        assert rec.counters == {"iterations": 1.0}

    def test_multi_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        a, b = make_recorder(), make_recorder(offset=10.0)
        export_trace(path, a, run="dpsgd")
        export_trace(path, b, run="geodp", append=True)
        loaded = load_traces(path)
        assert sorted(loaded) == ["dpsgd", "geodp"]
        assert_recorders_equal(loaded["dpsgd"], a)
        assert_recorders_equal(loaded["geodp"], b)

    def test_load_trace_selects_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_trace(path, make_recorder(), run="a")
        export_trace(path, make_recorder(offset=1.0), run="b", append=True)
        assert load_trace(path, run="b").values("global") == [43.0]

    def test_load_trace_ambiguous_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_trace(path, make_recorder(), run="a")
        export_trace(path, make_recorder(), run="b", append=True)
        with pytest.raises(ValueError, match="pass run="):
            load_trace(path)

    def test_load_trace_missing_run_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_trace(path, make_recorder(), run="a")
        with pytest.raises(ValueError, match="'b'"):
            load_trace(path, run="b")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no trace blocks"):
            load_trace(path)


class TestTraceFormatErrors:
    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"kind": "meta", "version": 99, "run": "x"}) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_traces(path)

    def test_duplicate_run_label(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_trace(path, make_recorder(), run="a")
        with pytest.raises(ValueError, match="duplicate"):
            export_trace(path, make_recorder(), run="a", append=True)
            load_traces(path)

    def test_line_before_meta(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"kind": "step", "run": "x", "iteration": 1}) + "\n")
        with pytest.raises(ValueError, match="before meta"):
            load_traces(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_trace(path, MetricsRecorder(), run="x")
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "mystery", "run": "x"}) + "\n")
        with pytest.raises(ValueError, match="unknown trace line kind"):
            load_traces(path)
