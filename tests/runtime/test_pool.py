"""Tests for the fault-tolerant process-pool job runner."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    JobFailure,
    JobOutcome,
    make_jobs,
    parallel_available,
    resolve_workers,
    run_jobs,
)
from repro.telemetry import MetricsRecorder

needs_fork = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)


def double(job):
    return job.payload * 2


def seeded_draw(job):
    return float(job.rng.normal()) + job.payload


class TestResolveWorkers:
    def test_auto(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers("auto") >= 1

    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestSerialPath:
    def test_results_in_job_order(self):
        assert run_jobs(double, make_jobs([3, 1, 2]), workers=1) == [6, 2, 4]

    def test_bare_payloads_are_wrapped(self):
        assert run_jobs(double, [5, 6], workers=1) == [10, 12]

    def test_empty(self):
        assert run_jobs(double, [], workers=4) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            run_jobs(double, [1], max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            run_jobs(double, [1], timeout=0)

    def test_deterministic_error_raises_job_failure(self):
        def bad(job):
            raise RuntimeError("boom")

        with pytest.raises(JobFailure, match="job-0"):
            run_jobs(bad, [1], workers=1)


@needs_fork
class TestParallelPath:
    def test_parallel_equals_serial(self):
        jobs_a = make_jobs([10, 20, 30, 40, 50], rng=0)
        jobs_b = make_jobs([10, 20, 30, 40, 50], rng=0)
        assert run_jobs(seeded_draw, jobs_a, workers=1) == run_jobs(
            seeded_draw, jobs_b, workers=2
        )

    def test_closure_state_crosses_fork(self):
        big = np.arange(1000)

        def use_closure(job):
            return float(big[job.payload])

        assert run_jobs(use_closure, [1, 999], workers=2) == [1.0, 999.0]

    def test_outcomes_and_telemetry(self):
        recorder = MetricsRecorder()
        outcomes = []
        run_jobs(double, make_jobs([1, 2, 3]), workers=2, telemetry=recorder,
                 outcomes=outcomes)
        assert recorder.counters["runtime_jobs_completed"] == 3
        assert len(recorder.values("runtime_job_seconds")) == 3
        assert sorted(o.index for o in outcomes) == [0, 1, 2]
        assert all(isinstance(o, JobOutcome) and o.attempts == 1 for o in outcomes)

    def test_unpicklable_result_falls_back_to_serial(self):
        def locally_scoped(job):
            return lambda: job.payload  # lambdas cannot cross the boundary

        recorder = MetricsRecorder()
        [result] = run_jobs(
            locally_scoped, [7], workers=2, backoff_base=0.001, telemetry=recorder
        )
        assert result() == 7
        assert recorder.counters["runtime_serial_fallbacks"] == 1

    def test_retry_then_success(self, tmp_path):
        marker = tmp_path / "failed-once"

        def flaky(job):
            if job.payload == 2 and not marker.exists():
                marker.write_text("")
                raise OSError("transient")
            return job.payload

        recorder = MetricsRecorder()
        outcomes = []
        result = run_jobs(
            flaky,
            make_jobs([1, 2, 3]),
            workers=2,
            backoff_base=0.001,
            telemetry=recorder,
            outcomes=outcomes,
        )
        assert result == [1, 2, 3]
        assert recorder.counters["runtime_retries"] == 1
        retried = [o for o in outcomes if o.index == 1]
        assert retried and retried[0].attempts == 2


@needs_fork
class TestCrashRecovery:
    def test_worker_crash_retries_and_matches_serial(self, tmp_path):
        """A worker killed mid-job is retried; the result matches serial."""
        marker = tmp_path / "crashed-once"

        def crashy(job):
            value = float(job.rng.normal()) + job.payload
            in_worker = os.environ.get("_REPRO_POOL_PARENT") != str(os.getpid())
            if job.payload == 20 and in_worker and not marker.exists():
                marker.write_text("")
                os._exit(17)  # hard kill: no exception, no cleanup
            return value

        os.environ["_REPRO_POOL_PARENT"] = str(os.getpid())
        try:
            serial = run_jobs(crashy, make_jobs([10, 20, 30, 40], rng=1), workers=1)
            recorder = MetricsRecorder()
            parallel = run_jobs(
                crashy,
                make_jobs([10, 20, 30, 40], rng=1),
                workers=2,
                backoff_base=0.001,
                telemetry=recorder,
            )
        finally:
            del os.environ["_REPRO_POOL_PARENT"]
        assert marker.exists()  # the crash really happened in a worker
        assert parallel == serial
        assert recorder.counters["runtime_pool_restarts"] >= 1
        assert recorder.counters["runtime_jobs_completed"] == 4

    def test_always_crashing_job_falls_back_to_serial(self, tmp_path):
        """A job that kills every worker ends up on the in-process fallback."""
        def crashy(job):
            # The env marker holds the parent pid: forked workers see a
            # different getpid() and die; the in-process fallback survives.
            if job.payload == 2 and os.environ.get("_REPRO_IN_PARENT") != str(os.getpid()):
                os._exit(9)
            return job.payload * 3

        os.environ["_REPRO_IN_PARENT"] = str(os.getpid())
        try:
            recorder = MetricsRecorder()
            outcomes = []
            result = run_jobs(
                crashy,
                make_jobs([1, 2, 3]),
                workers=2,
                max_attempts=2,
                backoff_base=0.001,
                telemetry=recorder,
                outcomes=outcomes,
            )
        finally:
            del os.environ["_REPRO_IN_PARENT"]
        assert result == [3, 6, 9]
        # The poison job ends on the in-process fallback; innocent jobs
        # interrupted by its pool crashes may legitimately land there too.
        assert recorder.counters["runtime_serial_fallbacks"] >= 1
        [poison] = [o for o in outcomes if o.index == 1]
        assert poison.fallback

    def test_hung_job_times_out_and_recovers(self):
        def sleepy(job):
            if job.payload == "hang":
                import time

                if os.environ.get("_REPRO_IN_PARENT2") != str(os.getpid()):
                    time.sleep(60)
            return job.payload

        os.environ["_REPRO_IN_PARENT2"] = str(os.getpid())
        try:
            result = run_jobs(
                sleepy,
                make_jobs(["a", "hang", "b"]),
                workers=2,
                timeout=0.5,
                max_attempts=2,
                backoff_base=0.001,
            )
        finally:
            del os.environ["_REPRO_IN_PARENT2"]
        assert result == ["a", "hang", "b"]


SRC = str(Path(__file__).resolve().parents[2] / "src")


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_parent_is_killed(tmp_path):
    """SIGKILL the parent mid-job: no pool worker outlives it."""
    script = tmp_path / "parent.py"
    script.write_text(
        textwrap.dedent(
            f"""
            import os, time
            from repro.runtime import run_jobs

            def job(spec):
                open(os.path.join({str(tmp_path)!r}, f"worker-{{os.getpid()}}"), "w").close()
                time.sleep(60)

            run_jobs(job, [0, 1], workers=2)
            """
        )
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, str(script)], env=env)
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < 2:
            assert proc.poll() is None, "parent exited before its jobs started"
            assert time.monotonic() < deadline, "jobs never started"
            time.sleep(0.05)
            pids = [int(p.name.split("-")[1]) for p in tmp_path.glob("worker-*")]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
