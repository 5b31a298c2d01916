"""Ship worker-side telemetry back to the parent process.

The pool workers are forked processes: a recorder or tracer mutated inside
a job is invisible to the parent.  This module closes that gap without
giving up determinism:

* :func:`instrument` wraps a job function so each call runs with a *fresh*
  per-job :class:`~repro.telemetry.MetricsRecorder` and
  :class:`~repro.telemetry.tracing.Tracer`, and returns a picklable
  :class:`ShippedTelemetry` bundling the job's result with both state
  dicts.  The job body reaches its instruments through
  :func:`job_recorder` / :func:`job_tracer`.
* :func:`merge_shipped` unwraps a list of shipped results **in job-index
  order** and merges every state into the parent's recorder and tracer.
  Job order is fixed before anything runs, so the merged telemetry is
  identical for any worker count except for wall-clock quantities: span
  times and ``*_seconds`` series (compare recorders via
  :meth:`~repro.telemetry.MetricsRecorder.deterministic_state`).

The same wrapper runs on the serial path (``workers=1``), so a serial run
and an 8-worker run ship byte-identical deterministic projections.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ShippedTelemetry",
    "instrument",
    "job_recorder",
    "job_tracer",
    "merge_shipped",
]

#: Per-job instruments of the job currently executing in *this* process.
#: Module-global so forked workers and the serial path share one mechanism.
_ACTIVE: dict = {"recorder": None, "tracer": None}


def job_recorder():
    """The executing job's recorder, or ``None`` outside an instrumented job."""
    return _ACTIVE["recorder"]


def job_tracer():
    """The executing job's tracer, or ``None`` outside an instrumented job."""
    return _ACTIVE["tracer"]


@dataclass
class ShippedTelemetry:
    """A job result plus the state of its per-job instruments (picklable)."""

    result: object
    recorder_state: dict
    tracer_state: dict


def instrument(fn, *, granularity: str = "phase", trace_memory: bool = False):
    """Wrap ``fn`` so every call ships its telemetry with its result.

    The wrapper installs a fresh recorder and tracer before calling
    ``fn(job)`` (reachable via :func:`job_recorder` / :func:`job_tracer`)
    and returns a :class:`ShippedTelemetry` instead of the bare result.
    Instruments are always torn down, even when ``fn`` raises, so a
    retried job starts clean.
    """
    from repro.telemetry.recorder import MetricsRecorder
    from repro.telemetry.tracing import Tracer

    def shipped(job):
        recorder = MetricsRecorder()
        tracer = Tracer(granularity=granularity, trace_memory=trace_memory)
        _ACTIVE["recorder"], _ACTIVE["tracer"] = recorder, tracer
        try:
            result = fn(job)
        finally:
            _ACTIVE["recorder"], _ACTIVE["tracer"] = None, None
            tracer.close()
        return ShippedTelemetry(result, recorder.state_dict(), tracer.state_dict())

    # Marker the pool uses to count telemetry lost to failed attempts
    # (``runtime_shipback_lost``): a hung or crashed worker cannot ship
    # its partial state back, so the loss is made explicit instead of
    # silently under-reporting merged metrics.
    shipped.ships_telemetry = True
    shipped.__wrapped__ = fn
    return shipped


def merge_shipped(shipped, *, keys=None, recorder=None, tracer=None) -> list:
    """Unwrap shipped results, merging their telemetry; returns bare results.

    ``shipped`` is the ordered output of :func:`~repro.runtime.run_jobs`
    over an :func:`instrument`-wrapped function.  States merge in that
    fixed job-index order — never completion order — so the parent's
    telemetry is worker-count invariant.  ``keys`` labels each job's span
    track in the parent tracer (defaults to ``job-<index>``).  Entries
    that are not :class:`ShippedTelemetry` (nothing ran) pass through
    untouched.
    """
    results = []
    for index, item in enumerate(shipped):
        if not isinstance(item, ShippedTelemetry):
            results.append(item)
            continue
        track = str(keys[index]) if keys is not None else f"job-{index}"
        if recorder is not None:
            recorder.merge_state(item.recorder_state)
        if tracer is not None:
            tracer.merge_state(item.tracer_state, track=track)
        results.append(item.result)
    return results
