"""JSONL export/import of telemetry traces.

One exported run becomes a block of lines, each a JSON object with a
``kind`` discriminator and a ``run`` label (so several runs — e.g. a DP-SGD
and a GeoDP training at equal budget — can share one file):

``{"kind": "meta", "version": 2, "run": "dpsgd", ...}``
    header of one run's block; carries the tracer's configuration when the
    run was traced;
``{"kind": "series", "run": ..., "name": ..., "points": [[step, value], ...]}``
    one line per scalar series (a training iteration's scalars are the
    points at that iteration);
``{"kind": "counters", "run": ..., "values": {...}}``
    the run's counters (``iterations`` counts the training iterations);
``{"kind": "span", "run": ..., ...}``
    one line per :class:`~repro.telemetry.tracing.Span` (format version 2),
    the run's only record of phase time;
``{"kind": "ledger", "run": ..., "state": {...}}``
    the run's DP release ledger (format version 2).

The loaders rebuild the original objects exactly:
:func:`load_trace`/:func:`load_traces` return
:class:`~repro.telemetry.recorder.MetricsRecorder` instances (ignoring span
and ledger lines, for backward compatibility), while
:func:`load_run_bundles` returns a :class:`RunBundle` per run with the
recorder, the rebuilt :class:`~repro.telemetry.tracing.Tracer`, and the
rebuilt :class:`~repro.privacy.ledger.ReleaseLedger` — everything the
``repro report`` subcommand needs.  Older files also carry one ``step``
line per training iteration, and files written while the recorder still
timed phases a ``timers`` line; the loaders skip both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.recorder import MetricsRecorder
from repro.telemetry.tracing import Span, Tracer
from repro.utils.serialization import load_jsonl, save_jsonl

__all__ = [
    "export_trace",
    "load_trace",
    "load_traces",
    "load_run_bundles",
    "RunBundle",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 2
#: Versions the loaders accept.  Version 1 files (no span/ledger lines)
#: still load; version 2 adds the observability kinds.
SUPPORTED_VERSIONS = frozenset({1, 2})


@dataclass
class RunBundle:
    """Everything one run block of a trace file can carry.

    ``tracer`` and ``ledger`` are ``None`` when the run was exported
    without them (e.g. a version-1 file).
    """

    recorder: MetricsRecorder
    tracer: Tracer | None = None
    ledger: object | None = None


def _lines(recorder: MetricsRecorder, run: str, tracer, ledger):
    meta = {"kind": "meta", "version": FORMAT_VERSION, "run": run}
    if tracer is not None:
        meta["tracer"] = {
            "granularity": tracer.granularity,
            "trace_memory": tracer.trace_memory,
        }
    yield meta
    for name, points in recorder.series.items():
        yield {
            "kind": "series",
            "run": run,
            "name": name,
            "points": [[int(s), float(v)] for s, v in points],
        }
    yield {"kind": "counters", "run": run, "values": dict(recorder.counters)}
    if tracer is not None:
        for span in tracer.spans:
            yield {"kind": "span", "run": run, **span.to_dict()}
    if ledger is not None:
        yield {"kind": "ledger", "run": run, "state": ledger.state_dict()}


def export_trace(
    path,
    recorder: MetricsRecorder,
    *,
    run: str = "default",
    append: bool = False,
    tracer: Tracer | None = None,
    ledger=None,
) -> None:
    """Write one run's telemetry to ``path`` as a JSONL block labelled ``run``.

    ``tracer`` and ``ledger`` add the run's span tree and DP release ledger
    to the block.  ``append=True`` adds another run's block to an existing
    trace file; labels within one file must be unique for the loaders to
    keep them apart.
    """
    save_jsonl(path, _lines(recorder, run, tracer, ledger), append=append)


def _parse(path):
    """Yield ``(run, kind, record, meta)`` for every line of a trace file."""
    metas: dict[str, dict] = {}
    for record in load_jsonl(path):
        kind = record.get("kind")
        run = record.get("run", "default")
        if kind == "meta":
            version = record.get("version")
            if version not in SUPPORTED_VERSIONS:
                raise ValueError(f"unsupported trace format version {version!r}")
            if run in metas:
                raise ValueError(f"duplicate run label {run!r} in {path}")
            metas[run] = record
        elif run not in metas:
            raise ValueError(f"line of kind {kind!r} before meta line for run {run!r}")
        yield run, kind, record, metas[run]


def load_run_bundles(path) -> dict[str, RunBundle]:
    """Load every run block in a trace file as a :class:`RunBundle`."""
    from repro.privacy.ledger import ReleaseLedger

    bundles: dict[str, RunBundle] = {}
    for run, kind, record, meta in _parse(path):
        if kind == "meta":
            bundles[run] = RunBundle(MetricsRecorder())
            continue
        bundle = bundles[run]
        recorder = bundle.recorder
        if kind == "series":
            recorder.series[record["name"]] = [
                (int(s), float(v)) for s, v in record["points"]
            ]
        elif kind == "counters":
            recorder.counters.update(record["values"])
        elif kind in ("step", "timers"):
            pass  # older files; the series, counters and spans hold both
        elif kind == "span":
            if bundle.tracer is None:
                config = meta.get("tracer", {})
                bundle.tracer = Tracer(
                    granularity=config.get("granularity", "phase"),
                    trace_memory=False,
                )
                bundle.tracer.trace_memory = bool(config.get("trace_memory", False))
            bundle.tracer.spans.append(Span.from_dict(record))
        elif kind == "ledger":
            bundle.ledger = ReleaseLedger()
            bundle.ledger.load_state_dict(record["state"])
        else:
            raise ValueError(f"unknown trace line kind {kind!r}")
    return bundles


def load_traces(path) -> dict[str, MetricsRecorder]:
    """Load every run block in a trace file, keyed by run label.

    Returns only the recorders; span and ledger lines are parsed (and
    validated) but not returned — use :func:`load_run_bundles` for those.
    """
    return {run: bundle.recorder for run, bundle in load_run_bundles(path).items()}


def load_trace(path, run: str | None = None) -> MetricsRecorder:
    """Load a single run from a trace file.

    With ``run=None`` the file must contain exactly one run; otherwise the
    requested label is selected.
    """
    recorders = load_traces(path)
    if not recorders:
        raise ValueError(f"no trace blocks found in {path}")
    if run is None:
        if len(recorders) != 1:
            raise ValueError(
                f"{path} holds runs {sorted(recorders)}; pass run=... to pick one"
            )
        return next(iter(recorders.values()))
    if run not in recorders:
        raise ValueError(f"run {run!r} not in {path} (has {sorted(recorders)})")
    return recorders[run]
