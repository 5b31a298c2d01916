"""Span tracer tests: tree structure, granularity gating, serialisation,
deterministic merging, and Chrome trace-event export validity."""

import json

import pytest

from repro.telemetry import MetricsRecorder, RunBundle, Tracer, export_trace
from repro.telemetry.export import load_run_bundles
from repro.telemetry.tracing import SPAN_LEVELS, Span, maybe_span


def _sample_tracer() -> Tracer:
    tracer = Tracer(granularity="phase")
    with tracer.span("run", level="run"):
        with tracer.span("lot", level="lot") as lot:
            lot.meta["iteration"] = 0.0
            with tracer.span("clip"):
                pass
            with tracer.span("noise"):
                pass
        with tracer.span("lot", level="lot"):
            with tracer.span("clip"):
                pass
    return tracer


class TestSpanTree:
    def test_nesting_builds_parent_links(self):
        tracer = _sample_tracer()
        names = [s.name for s in tracer.spans]
        assert names == ["run", "lot", "clip", "noise", "lot", "clip"]
        run, lot1, clip1, noise, lot2, clip2 = tracer.spans
        assert run.parent is None and run.depth == 0
        assert lot1.parent == 0 and lot1.depth == 1
        assert clip1.parent == 1 and noise.parent == 1 and clip1.depth == 2
        assert lot2.parent == 0 and clip2.parent == 4

    def test_durations_nest(self):
        tracer = _sample_tracer()
        run, lot1 = tracer.spans[0], tracer.spans[1]
        assert run.duration >= lot1.duration >= tracer.spans[2].duration >= 0.0
        assert lot1.start >= run.start

    def test_granularity_gates_deeper_spans(self):
        tracer = Tracer(granularity="lot")
        with tracer.span("run", level="run"):
            with tracer.span("lot", level="lot"):
                with tracer.span("clip") as phase:
                    assert phase is None
        assert [s.name for s in tracer.spans] == ["run", "lot"]
        assert tracer.enabled("lot") and not tracer.enabled("phase")

    def test_granularity_run_records_only_run(self):
        tracer = Tracer(granularity="run")
        with tracer.span("run", level="run"):
            with tracer.span("epoch", level="epoch") as epoch:
                assert epoch is None
        assert len(tracer) == 1

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError, match="granularity"):
            Tracer(granularity="nanosecond")

    def test_phase_totals(self):
        tracer = _sample_tracer()
        totals = tracer.phase_totals(level="phase")
        assert set(totals) == {"clip", "noise"}
        assert totals["clip"] == pytest.approx(
            sum(s.duration for s in tracer.spans if s.name == "clip")
        )
        assert set(tracer.phase_totals()) == {"run", "lot", "clip", "noise"}

    def test_levels_are_the_documented_hierarchy(self):
        assert SPAN_LEVELS == ("run", "epoch", "lot", "phase")

    def test_span_closes_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("lot", level="lot"):
                with tracer.span("clip"):
                    raise RuntimeError("boom")
        lot, clip = tracer.spans
        assert lot.duration >= clip.duration > 0.0
        # Both spans left the open stack: the next span is a new root and
        # the tracer serialises (it refuses while a span is open).
        with tracer.span("noise"):
            pass
        assert tracer.spans[-1].parent is None
        assert len(tracer.state_dict()["spans"]) == 3


class TestMemoryTracing:
    def test_peak_bytes_recorded_and_child_propagates_to_parent(self):
        tracer = Tracer(trace_memory=True)
        try:
            with tracer.span("outer", level="lot"):
                with tracer.span("inner"):
                    blob = bytearray(2_000_000)
                    del blob
            outer, inner = tracer.spans
            assert inner.peak_bytes is not None and inner.peak_bytes >= 2_000_000
            assert outer.peak_bytes >= inner.peak_bytes
        finally:
            tracer.close()

    def test_memory_off_leaves_peaks_none(self):
        tracer = _sample_tracer()
        assert all(s.peak_bytes is None for s in tracer.spans)


class TestSerialisation:
    def test_state_round_trip(self):
        tracer = _sample_tracer()
        state = tracer.state_dict()
        clone = Tracer()
        clone.load_state_dict(state)
        assert clone.granularity == tracer.granularity
        assert [s.to_dict() for s in clone.spans] == [
            s.to_dict() for s in tracer.spans
        ]

    def test_state_dict_refuses_open_span(self):
        tracer = Tracer()
        cm = tracer.span("run", level="run")
        cm.__enter__()
        with pytest.raises(RuntimeError, match="still open"):
            tracer.state_dict()
        cm.__exit__(None, None, None)
        assert tracer.state_dict()["spans"][0]["name"] == "run"

    def test_span_dict_round_trip_preserves_meta(self):
        span = Span("lot", "lot", 1.5, duration=0.25, parent=3, depth=2,
                    peak_bytes=77, track="w1", meta={"iteration": 9.0})
        assert Span.from_dict(span.to_dict()) == span

    def test_merge_state_rebases_parents_and_relabels_track(self):
        parent = _sample_tracer()
        offset = len(parent.spans)
        worker = _sample_tracer()
        parent.merge_state(worker.state_dict(), track="cell-a")
        merged = parent.spans[offset:]
        assert [s.track for s in merged] == ["cell-a"] * offset
        assert merged[0].parent is None
        assert merged[1].parent == offset  # lot -> merged run
        assert merged[2].parent == offset + 1  # clip -> merged lot

    def test_export_round_trip_through_run_bundles(self, tmp_path):
        recorder = MetricsRecorder()
        recorder.record("loss", 1.0)
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        export_trace(path, recorder, run="r", tracer=tracer)
        bundles = load_run_bundles(path)
        assert isinstance(bundles["r"], RunBundle)
        loaded = bundles["r"].tracer
        assert loaded.granularity == tracer.granularity
        assert [s.to_dict() for s in loaded.spans] == [
            s.to_dict() for s in tracer.spans
        ]
        assert bundles["r"].recorder.values("loss") == [1.0]


class TestChromeTrace:
    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path):
        tracer = _sample_tracer()
        tracer.merge_state(_sample_tracer().state_dict(), track="worker-1")
        payload = tracer.chrome_trace()
        # Must survive strict JSON serialisation (what the file format is).
        parsed = json.loads(json.dumps(payload))
        events = parsed["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "M"}
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [m["args"]["name"] for m in metadata] == ["main", "worker-1"]
        assert len(complete) == len(tracer.spans)
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0  # microseconds
            assert event["pid"] == 0 and event["tid"] in (0, 1)
            assert event["cat"] in SPAN_LEVELS
        # main track is tid 0, merged worker lane tid 1
        main_tids = {e["tid"] for e in complete[: len(_sample_tracer().spans)]}
        assert main_tids == {0}

    def test_save_chrome_trace_writes_loadable_file(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.json"
        tracer.save_chrome_trace(path)
        parsed = json.loads(path.read_text())
        assert parsed["displayTimeUnit"] == "ms"
        assert len(parsed["traceEvents"]) == len(tracer.spans) + 1


class TestHelpers:
    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "clip") as span:
            assert span is None
