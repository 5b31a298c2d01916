"""Summary tables and run reports over recorded telemetry.

Two layers:

* :func:`metric_summary` / :func:`summarize` turn a
  :class:`~repro.telemetry.recorder.MetricsRecorder` into the compact
  plain-text tables the experiments CLI prints after a ``--telemetry`` run;
* :func:`build_report` / :func:`render_report` turn the
  :class:`~repro.telemetry.export.RunBundle`\\ s of an exported trace file
  (recorder + span tree + DP release ledger) into the full run report the
  ``repro report`` subcommand emits — phase-time breakdown, clip/noise
  diagnostics, ε trajectory, and ledger verification status — as a plain
  data dict (JSON mode) or rendered markdown.
"""

from __future__ import annotations

import json

import numpy as np

from repro.utils.tables import format_table

__all__ = [
    "metric_summary",
    "summarize",
    "build_report",
    "render_report",
    "render_budget_report",
    "alerts_from_ledger",
]


def metric_summary(recorder, name: str) -> dict[str, float]:
    """Count / mean / min / max / last of one scalar series."""
    values = recorder.values(name)
    if not values:
        raise KeyError(f"no series named {name!r} recorded")
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    stats = finite if finite.size else arr
    return {
        "count": float(arr.size),
        "mean": float(stats.mean()),
        "min": float(stats.min()),
        "max": float(stats.max()),
        "last": float(arr[-1]),
    }


def summarize(recorder, *, title: str | None = None) -> str:
    """Render a recorder's series and counters as text tables."""
    sections: list[str] = []
    if recorder.series:
        rows = []
        for name in sorted(recorder.series):
            stats = metric_summary(recorder, name)
            rows.append(
                [name, int(stats["count"]), stats["mean"], stats["min"], stats["max"], stats["last"]]
            )
        sections.append(
            format_table(
                ["metric", "n", "mean", "min", "max", "last"], rows, title=title
            )
        )
    if recorder.counters:
        rows = [[name, value] for name, value in sorted(recorder.counters.items())]
        sections.append(format_table(["counter", "total"], rows))
    if not sections:
        return "(no telemetry recorded)"
    return "\n\n".join(sections)


# --------------------------------------------------------------- run reports

#: Clip/noise diagnostic series summarised in run reports, when present.
_DIAGNOSTIC_SERIES = (
    "pre_clip_norm_mean",
    "pre_clip_norm_max",
    "clipped_fraction",
    "post_clip_norm",
    "noise_norm",
    "noise_to_signal",
    "cos_similarity",
    "angular_deviation",
    "sigma",
    "sensitivity",
)


def _ledger_section(ledger) -> dict | None:
    """Ledger summary + replay verification for one run bundle."""
    if ledger is None:
        return None
    from repro.privacy.ledger import verify_ledger

    verification = verify_ledger(ledger, strict=False)
    return {
        "entries": len(ledger.entries),
        "delta": ledger.delta,
        "head": ledger.head,
        "mechanisms": sorted({record.mechanism for record in ledger.entries}),
        "epsilon_trajectory": [
            [int(steps), float(eps)] for steps, eps in ledger.epsilon_trajectory()
        ],
        "verified": verification.ok,
        "verification": str(verification),
        "replayed_epsilon": verification.replayed_epsilon,
    }


def alerts_from_ledger(ledger) -> list[dict]:
    """Alert annotations chained into a ledger, as JSON-safe dicts.

    Fired :class:`~repro.telemetry.live.HealthMonitor` alerts are
    recorded as non-spending ``annotation.alert`` entries, so they
    survive export/restart with the rest of the chain and are extracted
    here for the report's ``alerts`` section.
    """
    if ledger is None:
        return []
    alerts = []
    for record in ledger.entries:
        if record.mechanism != "annotation.alert":
            continue
        entry = {
            "index": record.index,
            "epsilon_at_alert": record.epsilon,
            "namespace": record.namespace,
        }
        entry.update(record.meta)
        alerts.append(entry)
    return alerts


def _render_alerts(alerts: list[dict]) -> list[str]:
    lines = ["### Alerts", ""]
    if not alerts:
        lines.append("(no alerts fired)")
        lines.append("")
        return lines
    lines.append("| alert | severity | value | threshold | epsilon at alert |")
    lines.append("| --- | --- | ---: | ---: | ---: |")
    for alert in alerts:
        value = alert.get("value")
        threshold = alert.get("threshold")
        eps = alert.get("epsilon_at_alert")
        lines.append(
            f"| {alert.get('alert', '?')} "
            f"| {alert.get('severity', '?')} "
            f"| {'n/a' if value is None else format(value, '.6g')} "
            f"| {'n/a' if threshold is None else format(threshold, '.6g')} "
            f"| {'n/a' if eps is None else format(eps, '.6g')} |"
        )
    lines.append("")
    return lines


def _tracing_section(tracer) -> dict | None:
    """Phase-time breakdown + peak memory for one run bundle."""
    if tracer is None:
        return None
    phase_seconds = tracer.phase_totals(level="phase")
    peaks = [s.peak_bytes for s in tracer.spans if s.peak_bytes is not None]
    return {
        "spans": len(tracer.spans),
        "granularity": tracer.granularity,
        "run_seconds": tracer.phase_totals(level="run").get("run"),
        "lot_seconds": tracer.phase_totals(level="lot").get("lot"),
        "phase_seconds": {k: float(v) for k, v in sorted(phase_seconds.items())},
        "peak_bytes": max(peaks) if peaks else None,
    }


def build_report(bundles: dict) -> dict:
    """Assemble the ``repro report`` payload from loaded run bundles.

    ``bundles`` maps run labels to
    :class:`~repro.telemetry.export.RunBundle` instances (as returned by
    :func:`~repro.telemetry.export.load_run_bundles`).  The result is a
    JSON-serialisable dict: per run, the phase-time breakdown from the span
    tree, summary statistics of the clip/noise diagnostic series, the ε
    trajectory from the ledger, and the ledger's replay-verification
    status.
    """
    runs = {}
    for run, bundle in bundles.items():
        recorder = bundle.recorder
        diagnostics = {
            name: metric_summary(recorder, name)
            for name in _DIAGNOSTIC_SERIES
            if name in recorder.series
        }
        runs[run] = {
            "iterations": int(recorder.counters.get("iterations", 0)),
            "tracing": _tracing_section(bundle.tracer),
            "diagnostics": diagnostics,
            "counters": {k: float(v) for k, v in sorted(recorder.counters.items())},
            "ledger": _ledger_section(bundle.ledger),
            "alerts": alerts_from_ledger(bundle.ledger),
        }
    return {"runs": runs}


def _render_run(run: str, payload: dict) -> str:
    lines = [f"## Run `{run}`", ""]
    lines.append(f"- iterations: {payload['iterations']}")
    tracing = payload["tracing"]
    ledger = payload["ledger"]
    if ledger is not None:
        status = "PASS" if ledger["verified"] else "FAIL"
        lines.append(
            f"- ledger: {ledger['entries']} releases, verification **{status}**"
            f" ({ledger['verification']})"
        )
        if ledger["epsilon_trajectory"]:
            steps, eps = ledger["epsilon_trajectory"][-1]
            lines.append(
                f"- privacy: epsilon = {eps:.6g} at delta = {ledger['delta']:.3g}"
                f" after {steps} releases"
            )
    if tracing is not None and tracing["peak_bytes"] is not None:
        lines.append(f"- peak traced memory: {tracing['peak_bytes']:,} bytes")
    lines.append("")

    if tracing is not None and tracing["phase_seconds"]:
        lines.append("### Phase time")
        lines.append("")
        lines.append("| phase | seconds |")
        lines.append("| --- | ---: |")
        for name, seconds in sorted(
            tracing["phase_seconds"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"| {name} | {seconds:.6f} |")
        if tracing["lot_seconds"] is not None:
            lines.append(f"| (all lots) | {tracing['lot_seconds']:.6f} |")
        if tracing["run_seconds"] is not None:
            lines.append(f"| (run total) | {tracing['run_seconds']:.6f} |")
        lines.append("")

    if payload["diagnostics"]:
        lines.append("### Clip / noise diagnostics")
        lines.append("")
        lines.append("| series | n | mean | min | max | last |")
        lines.append("| --- | ---: | ---: | ---: | ---: | ---: |")
        for name, stats in payload["diagnostics"].items():
            lines.append(
                f"| {name} | {int(stats['count'])} | {stats['mean']:.6g} "
                f"| {stats['min']:.6g} | {stats['max']:.6g} | {stats['last']:.6g} |"
            )
        lines.append("")

    if ledger is not None and ledger["epsilon_trajectory"]:
        lines.append("### Epsilon trajectory")
        lines.append("")
        trajectory = ledger["epsilon_trajectory"]
        shown = (
            trajectory
            if len(trajectory) <= 12
            else trajectory[:6] + [None] + trajectory[-6:]
        )
        lines.append("| releases | epsilon |")
        lines.append("| ---: | ---: |")
        for point in shown:
            if point is None:
                lines.append("| ... | ... |")
            else:
                lines.append(f"| {point[0]} | {point[1]:.6g} |")
        lines.append("")

    if payload.get("alerts"):
        lines.extend(_render_alerts(payload["alerts"]))

    if payload["counters"]:
        lines.append("### Counters")
        lines.append("")
        lines.append("| counter | total |")
        lines.append("| --- | ---: |")
        for name, value in payload["counters"].items():
            lines.append(f"| {name} | {value:g} |")
        lines.append("")
    return "\n".join(lines)


def _render_tenant(name: str, payload: dict) -> str:
    ledger = payload["ledger"]
    status = "PASS" if ledger["verified"] else "FAIL"
    lines = [f"## Tenant `{name}`", ""]
    lines.append(
        f"- budget: epsilon = {payload['epsilon_budget']:.6g} at "
        f"delta = {payload['delta']:.3g} (on overspend: {payload['on_overspend']})"
    )
    lines.append(
        f"- spent: {payload['spent_epsilon']:.6g} "
        f"({payload['utilization']:.1%} of budget, "
        f"{payload['remaining_epsilon']:.6g} remaining)"
    )
    rate = payload.get("burn_rate")
    if rate is not None:
        exhaustion = payload.get("steps_to_exhaustion")
        horizon = (
            "budget not shrinking"
            if exhaustion is None
            else f"~{exhaustion:.0f} accounted steps to exhaustion"
        )
        lines.append(f"- burn rate: {rate:.6g} epsilon/step ({horizon})")
    lines.append(
        f"- ledger: {ledger['entries']} entries, head `{ledger['head'][:12]}...`, "
        f"verification **{status}** ({ledger['verification']})"
    )
    lines.append("")
    lines.append("| job state | count |")
    lines.append("| --- | ---: |")
    for state, count in sorted(payload["jobs"].items()):
        lines.append(f"| {state} | {count} |")
    lines.append("")
    if payload["refusals"]:
        lines.append("### Refusals (non-spending annotations)")
        lines.append("")
        lines.append("| job | projected epsilon | epsilon at refusal |")
        lines.append("| --- | ---: | ---: |")
        for refusal in payload["refusals"]:
            projected = refusal["projected_epsilon"]
            at = refusal["epsilon_at_refusal"]
            lines.append(
                f"| {refusal['job_id']} "
                f"| {'n/a' if projected is None else format(projected, '.6g')} "
                f"| {'n/a' if at is None else format(at, '.6g')} |"
            )
        lines.append("")
    if payload.get("alerts"):
        lines.extend(_render_alerts(payload["alerts"]))
    return "\n".join(lines)


def render_budget_report(report: dict, *, fmt: str = "markdown") -> str:
    """Render a per-tenant budget report payload as markdown or JSON.

    ``report`` is the output of
    :func:`repro.service.report.build_budget_report`; this renderer lives
    with the other report formatting so every human-facing surface (run
    reports, budget reports) shares one home.
    """
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt != "markdown":
        raise ValueError(f"fmt must be 'markdown' or 'json', got {fmt!r}")
    sections = ["# Tenant budget report", ""]
    totals = report.get("jobs", {})
    if totals:
        summary = ", ".join(f"{state}: {count}" for state, count in sorted(totals.items()))
        sections.append(f"Jobs — {summary}")
        sections.append("")
    for name in sorted(report["tenants"]):
        sections.append(_render_tenant(name, report["tenants"][name]))
    return "\n".join(sections).rstrip() + "\n"


def render_report(
    report: dict, *, fmt: str = "markdown", alerts_only: bool = False
) -> str:
    """Render a :func:`build_report` payload as markdown or JSON text.

    ``alerts_only`` restricts the output to each run's ``alerts``
    section (the ``repro report --alerts-only`` surface).
    """
    if alerts_only:
        report = {
            "runs": {
                run: {"alerts": payload.get("alerts", [])}
                for run, payload in report["runs"].items()
            }
        }
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt != "markdown":
        raise ValueError(f"fmt must be 'markdown' or 'json', got {fmt!r}")
    if alerts_only:
        sections = ["# Run report (alerts)", ""]
        for run in sorted(report["runs"]):
            sections.append(f"## Run `{run}`")
            sections.append("")
            sections.extend(_render_alerts(report["runs"][run]["alerts"]))
        return "\n".join(sections).rstrip() + "\n"
    sections = ["# Run report", ""]
    for run in sorted(report["runs"]):
        sections.append(_render_run(run, report["runs"][run]))
    return "\n".join(sections).rstrip() + "\n"
