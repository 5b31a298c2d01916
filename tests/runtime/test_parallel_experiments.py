"""Parallel-equals-serial guarantees for experiment grids.

The fast tests are the tier-1 smoke for the determinism invariant; the
``slow``-marked matrix extends it to workers in {1, 2, 4}.  A grid
interrupted mid-run must resume only its unfinished cells, and a cell
whose worker crashes must still produce the serial result through retry.
"""

import os

import pytest

from repro.data import make_mnist_like, train_test_split
from repro.experiments.training_grid import (
    MethodSpec,
    cell_checkpoint_dir,
    run_grid,
)
from repro.models import build_logistic_regression
from repro.runtime import JobFailure, parallel_available
from repro.telemetry import MetricsRecorder

needs_fork = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)

METHODS = [
    MethodSpec("DP (B=32)", "dp", 32),
    MethodSpec("GeoDP (B=32,beta=0.5)", "geodp", 32, 0.5),
]


@pytest.fixture(scope="module")
def grid_data():
    return train_test_split(make_mnist_like(140, rng=0, size=8), rng=0)


def builder():
    return build_logistic_regression((1, 8, 8), rng=0)


def tiny_grid(grid_data, *, workers=1, sigmas=(0.5,), model_builder=builder,
              checkpoint_dir=None, telemetry=None, resume=True):
    train, test = grid_data
    return run_grid(
        METHODS,
        model_builder,
        train,
        test,
        sigmas=sigmas,
        iterations=3,
        learning_rate=0.5,
        clip_norm=0.5,
        rng=9,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=1,
        resume=resume,
        workers=workers,
        telemetry=telemetry,
    )


@needs_fork
class TestSmoke:
    """Fast tier-1 coverage of the parallel = serial invariant."""

    def test_grid_parity(self, grid_data):
        recorder = MetricsRecorder()
        serial = tiny_grid(grid_data, workers=1)
        parallel = tiny_grid(grid_data, workers=2, telemetry=recorder)
        assert parallel == serial
        assert recorder.counters["runtime_cells_scheduled"] == 3
        assert recorder.counters["runtime_jobs_completed"] == 3


@needs_fork
@pytest.mark.slow
class TestDeterminismMatrix:
    """workers in {1, 2, 4} are all bit-identical."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_grid(self, grid_data, workers):
        reference = tiny_grid(grid_data, sigmas=(0.5, 1.0))
        result = tiny_grid(grid_data, workers=workers, sigmas=(0.5, 1.0))
        assert result == reference


@needs_fork
class TestInterruptedGrid:
    def test_resume_skips_finished_cells(self, grid_data, tmp_path):
        """A killed grid resumes bit-identically, re-training only the
        cells that had not finished."""
        reference = tiny_grid(grid_data, checkpoint_dir=tmp_path / "ref")

        calls = {"n": 0}

        def dying_builder():
            calls["n"] += 1
            if calls["n"] >= 3:  # cells 0 and 1 finish, cell 2 dies
                raise RuntimeError("interrupted")
            return builder()

        ckpt = tmp_path / "run"
        with pytest.raises(JobFailure):
            tiny_grid(grid_data, model_builder=dying_builder, checkpoint_dir=ckpt)

        finished = [
            cell_checkpoint_dir(ckpt, "noise-free-reference", 0.0),
            cell_checkpoint_dir(ckpt, METHODS[0].label, 0.5),
        ]
        before = {
            path: path.stat().st_mtime_ns
            for cell in finished
            for path in sorted(cell.glob("*"))
        }
        assert before, "interrupted run left no snapshots for finished cells"

        resumed = tiny_grid(grid_data, workers=2, checkpoint_dir=ckpt)
        assert resumed == reference
        after = {path: path.stat().st_mtime_ns for path in before}
        assert after == before  # finished cells were not re-trained

    def test_cell_crash_retried_to_serial_result(self, grid_data, tmp_path):
        """A worker crash inside one cell is retried and the grid still
        matches the serial run."""
        reference = tiny_grid(grid_data, workers=1)
        marker = tmp_path / "crashed-once"

        def crashing_builder():
            in_worker = os.environ.get("_REPRO_GRID_PARENT") != str(os.getpid())
            if in_worker and not marker.exists():
                marker.write_text("")
                os._exit(23)  # simulate an OOM-killed worker
            return builder()

        os.environ["_REPRO_GRID_PARENT"] = str(os.getpid())
        try:
            recorder = MetricsRecorder()
            result = tiny_grid(
                grid_data,
                workers=2,
                model_builder=crashing_builder,
                telemetry=recorder,
            )
        finally:
            del os.environ["_REPRO_GRID_PARENT"]
        assert result == reference
        assert marker.exists()
        assert recorder.counters["runtime_pool_restarts"] >= 1
