"""Behavioral tests of the reusable-workspace buffer arena.

The arena's contract (:mod:`repro.backend.workspace`): ``take`` hands out
pooled buffers keyed by ``(shape, dtype)`` and transfers ownership,
``give`` donates them back, the pool is bounded, and counters track
hits/misses/pooled bytes.  The payoff — a near-zero-allocation
steady-state release — is asserted directly with ``tracemalloc`` against
:data:`RELEASE_STEADY_PEAK_CEILING`.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.backend import use_backend, workspace

from tests.backend.conftest import parity_backends

pytestmark = pytest.mark.backend

#: Ceiling on the steady-state (arena-warm) allocation peak of one
#: ``perturb_geodp_batch`` release at (64, 5000).  BENCH_1 measured
#: 23 041 638 peak bytes for the same release before the workspace arena
#: existed; the arena must cut that at least 5x.
RELEASE_STEADY_PEAK_CEILING = 23_041_638 // 5


@pytest.fixture(autouse=True)
def _clean_arena():
    """Each test starts from an empty pool and zeroed counters."""
    workspace.invalidate()
    workspace.reset_stats()
    yield
    workspace.invalidate()
    workspace.reset_stats()


class TestTakeGive:
    def test_take_miss_then_hit_returns_same_buffer(self):
        first = workspace.take((4, 8))
        assert first.shape == (4, 8) and first.dtype == np.float64
        workspace.give(first)
        second = workspace.take((4, 8))
        assert second is first
        stats = workspace.stats()
        assert stats["workspace_hits"] == 1
        assert stats["workspace_misses"] == 1

    def test_keys_separate_shapes_and_dtypes(self):
        a = workspace.take((4, 8))
        workspace.give(a)
        assert workspace.take((8, 4)) is not a  # different shape, same size
        b = workspace.take((4, 8), dtype=np.float32)
        assert b.dtype == np.float32 and b is not a

    def test_give_tracks_pooled_bytes(self):
        buf = workspace.take(1000)
        workspace.give(buf)
        assert workspace.stats()["workspace_bytes"] == buf.nbytes
        workspace.take(1000)
        assert workspace.stats()["workspace_bytes"] == 0

    def test_per_key_cap_drops_excess_buffers(self):
        buffers = [workspace.take(16) for _ in range(workspace.MAX_BUFFERS_PER_KEY + 3)]
        for buf in buffers:
            workspace.give(buf)
        pooled = workspace.stats()["workspace_bytes"]
        assert pooled == workspace.MAX_BUFFERS_PER_KEY * buffers[0].nbytes

    def test_scratch_returns_buffer_to_pool(self):
        with workspace.scratch((3, 3)) as buf:
            buf.fill(7.0)
        again = workspace.take((3, 3))
        assert again is buf  # returned to the pool on exit

    def test_zeros_is_zero_filled(self):
        buf = workspace.take(5)
        buf.fill(9.0)
        workspace.give(buf)
        assert np.all(workspace.zeros(5) == 0.0)

    def test_invalidate_empties_pool(self):
        workspace.give(workspace.take((2, 2)))
        workspace.invalidate()
        stats = workspace.stats()
        assert stats["workspace_bytes"] == 0 and stats["workspace_keys"] == 0

    def test_reset_stats_keeps_pool(self):
        workspace.give(workspace.take(8))
        workspace.reset_stats()
        stats = workspace.stats()
        assert stats["workspace_hits"] == stats["workspace_misses"] == 0
        assert stats["workspace_bytes"] > 0


class TestNoteReleaseShape:
    def test_same_shape_keeps_pool(self):
        class Owner:
            pass

        owner = Owner()
        workspace.note_release_shape(owner, (10,))
        workspace.give(workspace.take((10,)))
        workspace.note_release_shape(owner, (10,))
        assert workspace.stats()["workspace_bytes"] > 0

    def test_shape_change_invalidates_pool(self):
        class Owner:
            pass

        owner = Owner()
        workspace.note_release_shape(owner, (10,))
        workspace.give(workspace.take((10,)))
        workspace.note_release_shape(owner, (20,))
        assert workspace.stats()["workspace_bytes"] == 0

    def test_owners_are_independent(self):
        class Owner:
            pass

        a, b = Owner(), Owner()
        workspace.note_release_shape(a, (10,))
        workspace.note_release_shape(b, (20,))
        workspace.give(workspace.take((10,)))
        # b re-announcing its own (unchanged) shape must not flush a's pool.
        workspace.note_release_shape(b, (20,))
        assert workspace.stats()["workspace_bytes"] > 0


def _steady_release_peak(backend_name: str) -> int:
    """tracemalloc peak of one arena-warm ``perturb_geodp_batch`` at (64, 5000).

    Two warm-up calls populate every ``(shape, dtype)`` key first.
    """
    from repro.core.perturbation import perturb_geodp_batch

    grads = np.random.default_rng(0).normal(size=(64, 5000)) * 0.01

    def release():
        return perturb_geodp_batch(grads, 0.1, 1.0, 1024, 0.1, np.random.default_rng(7))

    with use_backend(backend_name):
        release()
        release()
        tracemalloc.start()
        release()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak


def test_steady_state_release_allocation_is_bounded():
    """An arena-warm GeoDP release allocates far less than the pre-arena 23 MB.

    After two warm-up calls populate every ``(shape, dtype)`` key, the
    tracemalloc peak of one more release must sit under
    :data:`RELEASE_STEADY_PEAK_CEILING`.  The only steady-state allocation
    left is the output buffer the caller keeps.
    """
    peak = _steady_release_peak("auto")
    assert peak <= RELEASE_STEADY_PEAK_CEILING, (
        f"steady-state release peak {peak} bytes; arena should keep it "
        f"under {RELEASE_STEADY_PEAK_CEILING}"
    )


@pytest.mark.parametrize("backend_name", parity_backends())
def test_steady_peak_ceiling(backend_name):
    """Every arena-backed backend meets the ceiling, not just ``auto``'s pick."""
    peak = _steady_release_peak(backend_name)
    assert peak <= RELEASE_STEADY_PEAK_CEILING, (
        f"{backend_name}: steady-state release peak {peak} bytes; arena should "
        f"keep it under {RELEASE_STEADY_PEAK_CEILING}"
    )


def test_ceiling_is_5x_under_the_pre_arena_peak():
    """The ceiling is one fifth of the pre-arena peak archived in BENCH_1."""
    archive = Path(__file__).resolve().parents[2] / "BENCH_1.json"
    pre_arena = json.loads(archive.read_text())["benchmarks"]["perturb_geodp_batch"]
    assert RELEASE_STEADY_PEAK_CEILING == pre_arena["peak_bytes"] // 5
