"""Telemetry for DP training runs: metrics, span traces, JSONL export.

The paper's analysis is geometric — what matters per step is not just the
loss but *where the released gradient points* relative to the true one.
This package gives the trainer and the DP optimizers a shared, optional
recorder so those per-step quantities (pre/post-clip norms, clipped
fraction, noise-to-signal ratio, angular deviation, GeoDP's noise split)
become first-class observable series, exportable to JSONL and assertable in
tests.  Telemetry is strictly opt-in: nothing is recorded (and no overhead
is paid) unless a :class:`MetricsRecorder` is passed in.

:mod:`repro.telemetry.live` adds the *operational* layer on top: a
scrapeable :class:`~repro.telemetry.live.MetricsRegistry` (bind one with
``recorder.bind_registry``), DP health alerting, a sampling profiler,
and the ``repro monitor`` CLI.
"""

from repro.telemetry.diagnostics import (
    clip_diagnostics,
    record_clipping,
    record_release,
    release_diagnostics,
)
from repro.telemetry.export import (
    RunBundle,
    export_trace,
    load_run_bundles,
    load_trace,
    load_traces,
)
from repro.telemetry.live import (
    AlertRule,
    HealthMonitor,
    JsonlTimeSeries,
    MetricsExporter,
    MetricsRegistry,
    SamplingProfiler,
    default_training_rules,
    render_prometheus,
    rule_from_dict,
)
from repro.telemetry.recorder import MetricsRecorder
from repro.telemetry.report import (
    build_report,
    metric_summary,
    render_budget_report,
    render_report,
    summarize,
)
from repro.telemetry.tracing import Span, Tracer, maybe_span

__all__ = [
    "MetricsRecorder",
    "Span",
    "Tracer",
    "maybe_span",
    "clip_diagnostics",
    "release_diagnostics",
    "record_clipping",
    "record_release",
    "export_trace",
    "load_trace",
    "load_traces",
    "load_run_bundles",
    "RunBundle",
    "metric_summary",
    "summarize",
    "build_report",
    "render_budget_report",
    "render_report",
    "MetricsRegistry",
    "MetricsExporter",
    "JsonlTimeSeries",
    "render_prometheus",
    "AlertRule",
    "HealthMonitor",
    "default_training_rules",
    "rule_from_dict",
    "SamplingProfiler",
]
