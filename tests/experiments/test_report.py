"""`repro report` subcommand tests, ending in the acceptance check: a full
CLI trace run exports a ledger that replay-verifies to 1e-9."""

import json

import pytest

from repro.experiments.cli import main, run_report
from repro.privacy import RdpAccountant, ReleaseLedger, verify_ledger
from repro.telemetry import (
    MetricsRecorder,
    Tracer,
    build_report,
    export_trace,
    load_run_bundles,
    render_report,
)


def _export_bundle(path):
    recorder = MetricsRecorder()
    tracer = Tracer()
    ledger = ReleaseLedger()
    accountant = RdpAccountant()
    with tracer.span("run", level="run"):
        for i in range(3):
            recorder.start_step(i)
            with tracer.span("lot", level="lot"):
                with tracer.span("clip"):
                    pass
            recorder.record("clipped_fraction", 0.5)
            recorder.increment("iterations")
            accountant.step(1.0, 0.1)
            ledger.record_release(
                mechanism="gaussian", sigma=1.0, sensitivity=0.1,
                sample_rate=0.1, accountant=accountant,
            )
            recorder.end_step()
    export_trace(path, recorder, run="demo", tracer=tracer, ledger=ledger)


class TestReportRendering:
    def test_markdown_report(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _export_bundle(path)
        text = run_report(str(path))
        assert "# Run report" in text and "## Run `demo`" in text
        assert "verification **PASS**" in text
        assert "| clip |" in text and "clipped_fraction" in text

    def test_unchargeable_ledger_renders_failed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ledger = ReleaseLedger()
        ledger.record_release(
            mechanism="gaussian", sigma=1.0, sensitivity=0.1, sample_rate=1.5
        )
        export_trace(path, MetricsRecorder(), ledger=ledger)
        text = run_report(str(path))
        assert "verification **FAIL**" in text
        assert "ledger verification FAILED: entry 0" in text

    def test_json_report_is_parseable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _export_bundle(path)
        payload = json.loads(run_report(str(path), fmt="json"))
        run = payload["runs"]["demo"]
        assert run["iterations"] == 3
        assert run["ledger"]["verified"] is True
        assert run["ledger"]["entries"] == 3
        assert run["tracing"]["spans"] == 7
        assert "clip" in run["tracing"]["phase_seconds"]

    def test_chrome_side_output(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _export_bundle(path)
        chrome = tmp_path / "t.trace.json"
        run_report(str(path), chrome=str(chrome))
        parsed = json.loads(chrome.read_text())
        assert {e["ph"] for e in parsed["traceEvents"]} == {"X", "M"}

    def test_recorder_only_trace_still_reports(self, tmp_path):
        recorder = MetricsRecorder()
        recorder.record("loss", 1.0)
        path = tmp_path / "plain.jsonl"
        export_trace(path, recorder, run="plain")
        report = build_report(load_run_bundles(path))
        assert report["runs"]["plain"]["tracing"] is None
        assert report["runs"]["plain"]["ledger"] is None
        assert "# Run report" in render_report(report)

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="fmt"):
            render_report({"runs": {}}, fmt="yaml")


class TestCliPlumbing:
    def test_report_requires_path(self, capsys):
        assert main(["report"]) == 2
        assert "trace file" in capsys.readouterr().err

    def test_trace_path_rejected_for_experiments(self, capsys):
        assert main(["fig1", "some.jsonl"]) == 2
        assert "report" in capsys.readouterr().err

    def test_report_subcommand_prints(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _export_bundle(path)
        assert main(["report", str(path)]) == 0
        assert "# Run report" in capsys.readouterr().out


@pytest.mark.slow
class TestFullCliRun:
    def test_trace_export_report_and_ledger_verify_to_1e9(self, tmp_path, capsys):
        """Acceptance: full CLI run -> exported trace -> ledger replay at 1e-9."""
        trace = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.trace.json"
        assert main(["trace", "--scale", "smoke", "--telemetry", str(trace)]) == 0
        assert "privacy ledger" in capsys.readouterr().out

        bundles = load_run_bundles(trace)
        assert sorted(bundles) == ["dpsgd", "geodp"]
        for run, bundle in bundles.items():
            assert bundle.ledger is not None and len(bundle.ledger.entries) == 60
            verification = verify_ledger(bundle.ledger, tol=1e-9)
            assert verification.ok, f"{run}: {verification}"
            assert bundle.tracer is not None
            assert bundle.tracer.phase_totals(level="phase")["clip"] > 0

        assert main(["report", str(trace), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert out.count("verification **PASS**") == 2
        parsed = json.loads(chrome.read_text())
        spans = len(bundles["dpsgd"].tracer.spans) + len(bundles["geodp"].tracer.spans)
        complete = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == spans
