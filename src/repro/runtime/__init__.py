"""``repro.runtime`` — parallel execution subsystem.

Three layers, each usable on its own:

* :mod:`repro.runtime.pool` — fault-tolerant process-pool **job runner**
  (:func:`run_jobs`): forked workers, per-job retry with capped backoff,
  crash/timeout detection, automatic serial fallback, telemetry progress
  events.
* :mod:`repro.runtime.scheduler` — **experiment scheduler**
  (:func:`run_cells`): runs grid/sweep cells concurrently with index-based
  seed assignment, so results are bit-identical for any worker count.
* :mod:`repro.runtime.shipback` — **worker telemetry ship-back**
  (:func:`instrument` / :func:`merge_shipped`): per-job recorders and
  tracers travel back with results and merge deterministically in the
  parent; opt-in through ``run_cells(..., ship_telemetry=True)``.

See ``docs/parallelism.md`` for the worker model and the determinism
guarantees.
"""

from repro.runtime.jobs import (
    Job,
    JobFailure,
    JobOutcome,
    assign_job_rngs,
    make_jobs,
)
from repro.runtime.pool import parallel_available, resolve_workers, run_jobs
from repro.runtime.scheduler import make_cells, run_cells
from repro.runtime.shipback import (
    ShippedTelemetry,
    instrument,
    job_recorder,
    job_tracer,
    merge_shipped,
)

__all__ = [
    "Job",
    "JobFailure",
    "JobOutcome",
    "ShippedTelemetry",
    "assign_job_rngs",
    "instrument",
    "job_recorder",
    "job_tracer",
    "make_cells",
    "make_jobs",
    "merge_shipped",
    "parallel_available",
    "resolve_workers",
    "run_cells",
    "run_jobs",
]
