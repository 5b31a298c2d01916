"""Shared fixtures for the backend differential-parity harness.

Every test in this package runs against explicit backend selections, so
the module-level fixture snapshots and restores the process-wide backend
around each test — a failing test can never leak a non-default backend
into the rest of the suite.
"""

from __future__ import annotations

import pytest

import repro.backend as backend_mod
from repro.backend import available_backends

#: Backends that must be importable everywhere (no optional deps).
ALWAYS_AVAILABLE = ("reference", "fused")


def parity_backends() -> list[str]:
    """Non-reference backends available in this environment."""
    avail = available_backends()
    return [name for name in ("fused", "cext") if avail[name]]


def require_backend(name: str) -> str:
    if not available_backends()[name]:
        pytest.skip(f"backend {name!r} unavailable in this environment")
    return name


@pytest.fixture(autouse=True)
def _restore_backend():
    """Snapshot/restore the active backend around every test in tests/backend."""
    saved = (backend_mod._active, backend_mod._active_fell_back)
    yield
    backend_mod._active, backend_mod._active_fell_back = saved
