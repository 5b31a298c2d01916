"""Fallback-selection smoke tests (tier-1, no optional dependencies).

A compiler-less environment must never fail: requesting ``cext`` falls down
the acceleration chain to the best available numpy backend, the
substitution is surfaced as exactly one ``backend_fallbacks`` telemetry
counter, and experiment results are identical to explicitly selecting the
backend that the fallback landed on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    BACKEND_DISABLE_ENV,
    BACKEND_ENV,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.core.dpsgd import DpSgdOptimizer
from repro.experiments import table2
from repro.experiments.table2 import run_table2
from repro.telemetry.diagnostics import record_clipping
from repro.telemetry.recorder import MetricsRecorder

pytestmark = pytest.mark.backend

#: Micro preset so the Table II grid runs in seconds (same shape contract
#: as the full smoke preset; see tests/experiments/test_training_experiments).
_MICRO_TABLE2 = {
    "n": 120, "size": 16, "channels": (2, 2), "batches": (8, 16),
    "iters": 3, "sigmas": (10.0, 1.0), "lr": 2.0,
}


@pytest.fixture
def compiled_backends_disabled(monkeypatch):
    """Simulate a numpy-only environment: no C compiler."""
    monkeypatch.setenv(BACKEND_DISABLE_ENV, "cext")
    yield


def test_unavailable_request_falls_back_to_numpy(compiled_backends_disabled):
    avail = available_backends()
    assert not avail["cext"]
    backend = set_backend("cext")
    assert backend.name == "fused"  # best numpy backend in the chain
    assert backend_mod._active_fell_back is True


def test_fallback_emits_one_counter(compiled_backends_disabled):
    set_backend("cext")  # falls back to fused
    recorder = MetricsRecorder()
    opt = DpSgdOptimizer(
        learning_rate=0.1,
        clipping=1.0,
        noise_multiplier=1.0,
        rng=np.random.default_rng(0),
        recorder=recorder,
    )
    grads = np.random.default_rng(1).normal(size=(4, 10))
    params = opt.step(np.zeros(10), grads)
    params = opt.step(params, grads)  # second step must not double-count
    assert recorder.counters["backend_active_fused"] == 1
    assert recorder.counters["backend_fallbacks"] == 1


def test_first_selection_is_noted_once(compiled_backends_disabled, monkeypatch):
    """The first recorder of a process triggers the backend selection,
    which must not erase that recorder's note and count it twice."""
    monkeypatch.setattr(backend_mod, "_active", None)
    monkeypatch.setenv(BACKEND_ENV, "cext")
    recorder = MetricsRecorder()
    for _ in range(3):
        record_clipping(recorder, np.ones(4), 1.0)
    assert recorder.counters["backend_active_fused"] == 1
    assert recorder.counters["backend_fallbacks"] == 1


def test_auto_selection_is_not_a_fallback(compiled_backends_disabled):
    backend = set_backend("auto")
    assert backend.name == "fused"
    assert backend_mod._active_fell_back is False
    recorder = MetricsRecorder()
    opt = DpSgdOptimizer(
        learning_rate=0.1,
        clipping=1.0,
        noise_multiplier=1.0,
        rng=np.random.default_rng(0),
        recorder=recorder,
    )
    opt.step(np.zeros(8), np.random.default_rng(1).normal(size=(3, 8)))
    assert recorder.counters["backend_active_fused"] == 1
    assert "backend_fallbacks" not in recorder.counters


def test_fallback_run_matches_explicit_backend(
    compiled_backends_disabled, monkeypatch
):
    """Table-2-smoke results are identical: fallback fused == explicit fused."""
    monkeypatch.setitem(table2._PRESETS, "smoke", _MICRO_TABLE2)

    set_backend("cext")  # numpy-only env: lands on fused, flagged as fallback
    assert get_backend().name == "fused"
    fallback_result = run_table2("smoke", rng=0)

    with use_backend("fused"):
        explicit_result = run_table2("smoke", rng=0)

    assert fallback_result["noise_free"] == explicit_result["noise_free"]
    for got, want in zip(fallback_result["rows"], explicit_result["rows"]):
        assert got == want
