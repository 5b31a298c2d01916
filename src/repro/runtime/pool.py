"""Fault-tolerant process-pool job runner.

:func:`run_jobs` maps a function over picklable :class:`~repro.runtime.jobs.Job`
specs on a pool of forked workers, with:

* **deterministic results** — every job carries its own pre-spawned random
  stream (assigned by index, see :mod:`repro.runtime.jobs`), so the result
  list is bit-identical to a serial run for any worker count;
* **per-job retry with capped exponential backoff** — transient worker
  exceptions re-enqueue the job up to ``max_attempts`` times;
* **crash and timeout detection** — a worker that dies (segfault,
  ``os._exit``) breaks the pool; the runner kills the remains, restarts the
  pool and re-runs the interrupted jobs.  Jobs that exceed ``timeout``
  seconds are treated the same way;
* **automatic serial fallback** — a job whose parallel attempts are
  exhausted (or whose payload/result cannot cross a process boundary) runs
  in-process instead, so ``run_jobs`` degrades to the plain serial loop
  rather than failing;
* **progress events** — completions, retries, pool restarts and fallbacks
  are surfaced through the existing telemetry recorder
  (``runtime_*`` counters and the ``runtime_job_seconds`` series).

The job *function* is never pickled: workers are forked from the parent
after the function is installed in a module global, so closures over
models, datasets and other unpicklable state work transparently.  Only the
job payloads and results cross process boundaries.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.runtime.jobs import Job, JobFailure, JobOutcome

__all__ = ["parallel_available", "resolve_workers", "run_jobs"]

#: Start method used for worker processes.  Fork keeps the job function and
#: its closed-over state out of the pickle stream entirely.
START_METHOD = "fork"

#: Installed by :func:`run_jobs` immediately before the pool forks; workers
#: inherit it through fork and look it up in :func:`_invoke`.
_WORKER_FN = None

#: Seconds between a pool worker's checks that its parent is still alive.
PARENT_POLL_SECONDS = 0.2


def parallel_available() -> bool:
    """Whether this platform supports the forking worker pool."""
    return START_METHOD in mp.get_all_start_methods()


def resolve_workers(workers) -> int:
    """Normalise a worker-count request into a positive int.

    ``None`` or ``"auto"`` means one worker per CPU.
    """
    if workers is None or workers == "auto":
        return os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def exit_with_parent() -> None:
    """Pool-worker initializer: exit as soon as the parent process is gone.

    A parent killed by SIGKILL never shuts its pool down, and its workers
    would wait on the call queue for good, re-parented to init.  A daemon
    thread polls ``os.getppid()`` and calls ``os._exit`` once it changes.
    """
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _invoke(task):
    """Worker-side trampoline: run the fork-inherited function on one job."""
    index, job = task
    return index, _WORKER_FN(job)


def _count(telemetry, name: str, amount: float = 1) -> None:
    if telemetry is not None:
        telemetry.increment(name, amount)


def _record(telemetry, name: str, value: float) -> None:
    if telemetry is not None:
        telemetry.record(name, value)


def _as_jobs(jobs) -> list[Job]:
    out = []
    for i, job in enumerate(jobs):
        if not isinstance(job, Job):
            job = Job(key=f"job-{i}", payload=job)
        out.append(job)
    return out


def run_jobs(
    fn,
    jobs,
    *,
    workers=1,
    max_attempts: int = 3,
    timeout: float | None = None,
    backoff_base: float = 0.05,
    backoff_cap: float = 1.0,
    telemetry=None,
    outcomes: list[JobOutcome] | None = None,
) -> list:
    """Map ``fn`` over ``jobs``; results are returned in job order.

    Parameters
    ----------
    fn:
        Called as ``fn(job)`` for each :class:`Job` (bare payloads are
        wrapped on the fly).  Runs in a forked worker, so it may close over
        unpicklable state; the job payload and the return value must pickle
        (if they don't, the job silently degrades to the serial fallback).
    workers:
        Process count; ``1`` (the default) runs everything in-process with
        no subprocesses at all.  ``None``/``"auto"`` uses all CPUs.
    max_attempts:
        Parallel attempts per job before the in-process serial fallback.
    timeout:
        Per-job wall-clock limit in seconds.  An overdue job's pool is
        killed and the job retried; ``None`` disables the limit (worker
        *crashes* are still detected promptly either way).
    backoff_base / backoff_cap:
        Retry ``i`` sleeps ``min(backoff_base * 2**(i-1), backoff_cap)``.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRecorder` receiving
        ``runtime_*`` progress events.
    outcomes:
        Optional list collecting one :class:`JobOutcome` per job (appended
        in completion order; ``index`` maps back to the job).

    Errors raised by ``fn`` itself (i.e. reproducibly, on every attempt
    including the serial fallback) propagate as :class:`JobFailure`.
    """
    jobs = _as_jobs(jobs)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if not jobs:
        return []
    workers = resolve_workers(workers)
    if workers <= 1 or not parallel_available():
        return [
            _run_serial(fn, job, index, telemetry, outcomes, attempts=0)
            for index, job in enumerate(jobs)
        ]
    runner = _ParallelRunner(
        fn,
        jobs,
        workers=workers,
        max_attempts=max_attempts,
        timeout=timeout,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        telemetry=telemetry,
        outcomes=outcomes,
    )
    return runner.run()


def _run_serial(fn, job: Job, index: int, telemetry, outcomes, *, attempts: int):
    """Run one job in-process (serial mode or post-retry fallback)."""
    start = time.perf_counter()
    try:
        result = fn(job)
    except Exception as exc:
        raise JobFailure(job.key, attempts + 1, exc) from exc
    duration = time.perf_counter() - start
    _count(telemetry, "runtime_jobs_completed")
    _record(telemetry, "runtime_job_seconds", duration)
    if attempts:
        _count(telemetry, "runtime_serial_fallbacks")
    if outcomes is not None:
        outcomes.append(
            JobOutcome(
                job.key,
                index,
                attempts=attempts + 1,
                duration=duration,
                fallback=attempts > 0,
                result=result,
            )
        )
    return result


class _ParallelRunner:
    """One :func:`run_jobs` invocation's state machine."""

    def __init__(
        self,
        fn,
        jobs,
        *,
        workers,
        max_attempts,
        timeout,
        backoff_base,
        backoff_cap,
        telemetry,
        outcomes,
    ):
        self.fn = fn
        self.jobs = jobs
        self.workers = workers
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.telemetry = telemetry
        self.outcomes = outcomes
        self.results = [None] * len(jobs)
        self.done = [False] * len(jobs)
        self.attempts = [0] * len(jobs)
        self.queue = deque(range(len(jobs)))
        self.inflight: dict = {}  # future -> job index
        self.started: dict = {}  # future -> (monotonic submit time, perf start)
        self.executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------ lifecycle
    def run(self) -> list:
        global _WORKER_FN
        previous = _WORKER_FN
        _WORKER_FN = self.fn  # must be installed before the pool forks
        try:
            self._start_pool()
            while not all(self.done):
                self._submit_ready()
                if self.inflight:
                    self._wait_and_collect()
            return self.results
        finally:
            self._stop_pool(kill=False)
            _WORKER_FN = previous

    def _start_pool(self) -> None:
        ctx = mp.get_context(START_METHOD)
        self.executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=ctx, initializer=exit_with_parent
        )

    def _stop_pool(self, *, kill: bool) -> None:
        if self.executor is None:
            return
        if kill:
            # Hung or crashed workers never drain the call queue; reclaim
            # them forcibly before restarting.  ``_processes`` is private
            # but stable across CPython 3.8-3.13; degrade gracefully if it
            # ever disappears.
            processes = getattr(self.executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:
                    pass
        self.executor.shutdown(wait=not kill, cancel_futures=True)
        self.executor = None

    def _restart_pool(self) -> None:
        _count(self.telemetry, "runtime_pool_restarts")
        self._stop_pool(kill=True)
        self._start_pool()

    # ----------------------------------------------------------- scheduling
    def _submit_ready(self) -> None:
        # A small over-subscription buffer keeps workers busy without
        # queueing every job up front (which would make timeout accounting
        # meaningless for queued-but-not-running jobs).
        while self.queue and len(self.inflight) < 2 * self.workers:
            index = self.queue.popleft()
            try:
                future = self.executor.submit(_invoke, (index, self.jobs[index]))
            except BrokenProcessPool:
                self.queue.appendleft(index)
                self._on_broken_pool()
                return
            self.inflight[future] = index
            self.started[future] = (time.monotonic(), time.perf_counter())

    def _wait_and_collect(self) -> None:
        finished, _ = wait(
            set(self.inflight), timeout=self._wait_budget(), return_when=FIRST_COMPLETED
        )
        if not finished:
            self._expire_overdue()
            return
        for future in finished:
            index = self.inflight.pop(future)
            _, perf_start = self.started.pop(future)
            try:
                _, result = future.result()
            except BrokenProcessPool:
                # The crashing worker takes the whole executor down; every
                # other in-flight future is about to fail the same way.  The
                # popped job is charged an attempt along with its peers — it
                # may itself be the crasher, and skipping it would let a
                # poison job break the pool forever.
                self._on_broken_pool(also_charge=[index])
                return
            except Exception as exc:
                self._on_job_error(index, exc)
            else:
                self._on_job_done(index, result, time.perf_counter() - perf_start)

    def _wait_budget(self) -> float | None:
        if self.timeout is None:
            return None
        now = time.monotonic()
        deadlines = [mono + self.timeout for mono, _ in self.started.values()]
        return max(0.0, min(deadlines) - now) + 1e-3

    def _expire_overdue(self) -> None:
        now = time.monotonic()
        overdue = [
            future
            for future, (mono, _) in self.started.items()
            if now - mono >= self.timeout
        ]
        if not overdue:
            return
        # A single stuck worker cannot be killed through the executor API,
        # so treat the pool as lost: charge an attempt to the overdue jobs,
        # requeue the innocent ones for free, and restart.
        overdue_indices = {self.inflight[future] for future in overdue}
        for index in list(self.inflight.values()):
            if index in overdue_indices:
                self._on_job_error(index, TimeoutError(f"exceeded {self.timeout}s"))
            else:
                self._requeue(index)
        self.inflight.clear()
        self.started.clear()
        self._restart_pool()

    def _on_broken_pool(self, also_charge=()) -> None:
        # Attempts are charged to every interrupted job: the crasher is
        # indistinguishable from its peers, and max_attempts still bounds
        # the damage before the serial fallback takes over.
        interrupted = list(also_charge) + list(self.inflight.values())
        self.inflight.clear()
        self.started.clear()
        self._restart_pool()
        for index in interrupted:
            self._on_job_error(index, BrokenProcessPool("worker process died"))

    # -------------------------------------------------------------- results
    def _requeue(self, index: int) -> None:
        if not self.done[index]:
            self.queue.append(index)

    def _on_job_done(self, index: int, result, duration: float) -> None:
        if self.done[index]:
            return
        self.results[index] = result
        self.done[index] = True
        _count(self.telemetry, "runtime_jobs_completed")
        _record(self.telemetry, "runtime_job_seconds", duration)
        if self.outcomes is not None:
            self.outcomes.append(
                JobOutcome(
                    self.jobs[index].key,
                    index,
                    attempts=self.attempts[index] + 1,
                    duration=duration,
                    result=result,
                )
            )

    def _on_job_error(self, index: int, exc: BaseException) -> None:
        if self.done[index]:
            return
        self.attempts[index] += 1
        # An instrumented job that dies mid-attempt takes its shipped
        # telemetry with it (partial worker state is unreachable after a
        # hang or crash).  Count the loss so merged metrics are honest
        # about under-reporting instead of silent about it.
        if getattr(self.fn, "ships_telemetry", False):
            _count(self.telemetry, "runtime_shipback_lost")
        if self.attempts[index] >= self.max_attempts:
            # Last resort: run in-process.  Bit-identical to a worker run
            # (the job owns its random stream), and it turns "worker keeps
            # dying" into "slower but correct".  A deterministic error will
            # re-raise here, which is the right failure mode.
            self.results[index] = _run_serial(
                self.fn,
                self.jobs[index],
                index,
                self.telemetry,
                self.outcomes,
                attempts=self.attempts[index],
            )
            self.done[index] = True
            return
        _count(self.telemetry, "runtime_retries")
        time.sleep(min(self.backoff_base * 2 ** (self.attempts[index] - 1), self.backoff_cap))
        self.queue.append(index)
