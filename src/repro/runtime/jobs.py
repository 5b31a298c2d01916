"""Job specifications for the process-pool runner.

A :class:`Job` is the unit of work :func:`repro.runtime.pool.run_jobs`
ships to a worker: a stable ``key`` (used for telemetry and error
messages), an arbitrary picklable ``payload``, and — when the work is
stochastic — a pre-spawned ``numpy`` generator.  Seeds are always assigned
to jobs *by index* through :func:`assign_job_rngs` before anything runs,
never by completion order, which is what makes parallel results
bit-identical to serial ones for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.utils.rng import spawn_rngs

__all__ = [
    "Job",
    "JobFailure",
    "JobOutcome",
    "assign_job_rngs",
    "make_jobs",
]


@dataclass(frozen=True)
class Job:
    """One picklable unit of work for the pool runner."""

    #: Stable identifier (deterministic, independent of scheduling).
    key: str
    #: Arbitrary picklable payload handed to the job function.
    payload: Any = None
    #: Optional pre-spawned generator owning this job's random stream.
    rng: np.random.Generator | None = None


@dataclass
class JobOutcome:
    """Bookkeeping for one finished job (surfaced through telemetry)."""

    key: str
    index: int
    attempts: int = 1
    duration: float = 0.0
    #: True when the job's final attempt ran in-process (serial fallback).
    fallback: bool = False
    result: Any = field(default=None, repr=False)


class JobFailure(RuntimeError):
    """A job exhausted its attempts; carries the job key and last error."""

    def __init__(self, key: str, attempts: int, cause: BaseException):
        super().__init__(f"job {key!r} failed after {attempts} attempt(s): {cause!r}")
        self.key = key
        self.attempts = attempts
        self.cause = cause


def make_jobs(payloads, *, keys=None, rng=None) -> list[Job]:
    """Wrap ``payloads`` into :class:`Job` objects with index-based seeding.

    ``keys`` defaults to ``job-<index>``; when ``rng`` is given every job
    receives an independent child generator spawned in index order.
    """
    payloads = list(payloads)
    if keys is None:
        keys = [f"job-{i}" for i in range(len(payloads))]
    else:
        keys = [str(k) for k in keys]
        if len(keys) != len(payloads):
            raise ValueError(f"{len(payloads)} payloads but {len(keys)} keys")
    rngs: list[np.random.Generator | None]
    if rng is None:
        rngs = [None] * len(payloads)
    else:
        rngs = list(spawn_rngs(rng, len(payloads)))
    return [Job(k, p, r) for k, p, r in zip(keys, payloads, rngs)]


def assign_job_rngs(rng, n: int) -> list[np.random.Generator]:
    """``n`` independent generators, one per job index (deterministic).

    Thin alias of :func:`repro.utils.rng.spawn_rngs` under the name the
    runtime documentation uses: seed-sequence sharding by *index*.
    """
    return spawn_rngs(rng, n)
