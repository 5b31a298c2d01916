"""Tests for job specs and deterministic sharding helpers."""

import numpy as np
import pytest

from repro.runtime import Job, assign_job_rngs, make_jobs
from repro.utils.rng import spawn_rngs


class TestMakeJobs:
    def test_default_keys(self):
        jobs = make_jobs(["a", "b"])
        assert [j.key for j in jobs] == ["job-0", "job-1"]
        assert [j.payload for j in jobs] == ["a", "b"]
        assert all(j.rng is None for j in jobs)

    def test_explicit_keys(self):
        jobs = make_jobs([1, 2], keys=["x", "y"])
        assert [j.key for j in jobs] == ["x", "y"]

    def test_key_count_mismatch(self):
        with pytest.raises(ValueError, match="keys"):
            make_jobs([1, 2], keys=["only-one"])

    def test_seeding_matches_serial_spawn(self):
        """Job rngs are exactly the spawn_rngs streams a serial loop uses."""
        jobs = make_jobs([0, 1, 2], rng=np.random.default_rng(7))
        reference = spawn_rngs(np.random.default_rng(7), 3)
        for job, ref in zip(jobs, reference):
            assert job.rng.normal(size=4).tolist() == ref.normal(size=4).tolist()

    def test_jobs_are_plain_dataclasses(self):
        job = Job("k", payload=123)
        assert job.key == "k" and job.payload == 123 and job.rng is None


class TestAssignJobRngs:
    def test_index_based_independence(self):
        rngs = assign_job_rngs(0, 4)
        draws = [r.normal() for r in rngs]
        assert len(set(draws)) == 4  # distinct streams

    def test_deterministic(self):
        a = [r.normal() for r in assign_job_rngs(3, 3)]
        b = [r.normal() for r in assign_job_rngs(3, 3)]
        assert a == b
