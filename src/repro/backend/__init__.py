"""Pluggable kernel backend dispatch.

The numeric hot paths of the library — the GeoDP spherical round trip,
the ghost-clipping norm and accumulate kernels — are implemented behind a
small backend interface so that optimized implementations can be swapped
in without touching callers:

========= ==============================================================
Backend    What it is
========= ==============================================================
reference  Plain numpy, bit-identical to the pre-backend library.  The
           parity baseline and the default.
fused      Optimized numpy: trig-identity fused GeoDP perturbation,
           BLAS-routed ghost kernels, blocked conv Grams.
cext       ctypes-loaded C kernel compiled on first use with the system
           C compiler; available only when compilation succeeds.
auto       Selects the fastest available accelerated backend
           (cext > fused) without counting a fallback.
========= ==============================================================

Selection::

    from repro.backend import set_backend, get_backend, use_backend

    set_backend("auto")           # process-wide
    with use_backend("fused"):    # scoped (tests, benchmarks)
        ...

or via the environment: ``REPRO_BACKEND=fused python -m repro...``.
``REPRO_BACKEND_DISABLE`` (comma-separated names) masks backends, which is
how sandboxed environments keep the compiler probe off.

Requesting an unavailable backend (e.g. ``cext`` without a C compiler) is
not an error: the dispatcher *falls back* down the acceleration chain and
records the event, surfaced as a ``backend_fallbacks`` telemetry counter so
runs document the substitution.  Switching backends never changes *which*
random numbers a DP release consumes — noise is drawn by the callers, in a
fixed order, and handed to the kernels — so accounting and ledger replay
are bit-identical across backends (``tests/backend/`` enforces this).

Kernels run on the calling thread.  Per-sample work spreads over cores
through forked worker processes instead (see ``docs/parallelism.md``).
Hot-path buffers come from the :mod:`repro.backend.workspace` arena so
steady-state release allocation is near zero.

See ``docs/backends.md`` for the full contract.
"""

from __future__ import annotations

import os
import weakref

from repro.backend.cext import CExtBackend, compiler_available
from repro.backend.fused import FusedBackend
from repro.backend.reference import ReferenceBackend

__all__ = [
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "note_backend",
    "publish_metrics",
    "get_num_threads",
    "BACKEND_NAMES",
    "BACKEND_ENV",
    "BACKEND_DISABLE_ENV",
]

#: Selectable names, in documentation order ("auto" resolves to one of them).
BACKEND_NAMES = ("reference", "fused", "cext")

#: Environment variable naming the initial backend (default: ``reference``).
BACKEND_ENV = "REPRO_BACKEND"

#: Comma-separated backend names to treat as unavailable.
BACKEND_DISABLE_ENV = "REPRO_BACKEND_DISABLE"

#: Fallback preference for unavailable accelerated backends and ``auto``.
_ACCELERATED_ORDER = ("cext", "fused")

_active = None
_active_fell_back = False
_instances: dict[str, object] = {}
_noted: "weakref.WeakSet" = weakref.WeakSet()


def _disabled() -> set[str]:
    raw = os.environ.get(BACKEND_DISABLE_ENV, "")
    return {name.strip() for name in raw.split(",") if name.strip()}


def _is_available(name: str) -> bool:
    if name in _disabled():
        return False
    if name in ("reference", "fused"):
        return True
    if name == "cext":
        return compiler_available()
    return False


def available_backends() -> dict[str, bool]:
    """Mapping of backend name to availability in this environment."""
    return {name: _is_available(name) for name in BACKEND_NAMES}


def _instantiate(name: str):
    if name not in _instances:
        cls = {
            "reference": ReferenceBackend,
            "fused": FusedBackend,
            "cext": CExtBackend,
        }[name]
        _instances[name] = cls()
    return _instances[name]


def _resolve(name: str) -> tuple[str, bool]:
    """Resolve a requested name to ``(available name, fell_back)``."""
    if name == "auto":
        for candidate in _ACCELERATED_ORDER:
            if _is_available(candidate):
                return candidate, False
        return "reference", False
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES + ('auto',)}"
        )
    if _is_available(name):
        return name, False
    # Fall down the acceleration chain past the unavailable request.
    start = _ACCELERATED_ORDER.index(name) + 1 if name in _ACCELERATED_ORDER else 0
    for candidate in _ACCELERATED_ORDER[start:]:
        if _is_available(candidate):
            return candidate, True
    return "reference", True


def set_backend(name: str):
    """Select the process-wide backend; returns the backend object.

    Unavailable requests fall back down the chain (cext > fused >
    reference) and mark the selection as a fallback, which
    :func:`note_backend` reports as a ``backend_fallbacks`` counter.
    """
    global _active, _active_fell_back
    resolved, fell_back = _resolve(name)
    _active = _instantiate(resolved)
    _active_fell_back = fell_back
    # A new selection should be re-noted by any recorder that asks.
    _noted.clear()
    return _active


def get_backend():
    """The active backend (initialized from ``REPRO_BACKEND`` on first use)."""
    if _active is None:
        set_backend(os.environ.get(BACKEND_ENV, "reference"))
    return _active


class use_backend:
    """Context manager scoping a backend selection (restores the previous)."""

    def __init__(self, name: str):
        self._name = name
        self._previous = None

    def __enter__(self):
        global _active_fell_back
        self._previous = (get_backend(), _active_fell_back)
        return set_backend(self._name)

    def __exit__(self, *exc):
        global _active, _active_fell_back
        _active, _active_fell_back = self._previous
        _noted.clear()
        return False


def get_num_threads() -> int:
    """Threads a kernel call runs on: always 1, the calling thread.

    Kept for callers that report it, such as the step benchmark's header.
    """
    return 1


def note_backend(recorder) -> None:
    """Record the active backend on a telemetry recorder, once per recorder.

    Emits a ``backend_active_<name>`` counter, plus one
    ``backend_fallbacks`` counter when the active backend was substituted
    for an unavailable request.  Observational only — never touches the
    RNG or the kernels.
    """
    if recorder is None:
        return
    try:
        if recorder in _noted:
            return
        _noted.add(recorder)
    except TypeError:  # unhashable / non-weakrefable recorders: note anyway
        pass
    backend = get_backend()
    recorder.increment(f"backend_active_{backend.name}")
    if _active_fell_back:
        recorder.increment("backend_fallbacks")


def publish_metrics(registry) -> None:
    """Set backend-layer gauges on a live ``MetricsRegistry``.

    Designed as a registry *collector* (``registry.register_collector(
    publish_metrics)``), invoked at scrape/evaluation time: active
    backend (``backend_active{backend=...}`` one-hot), fallback state and
    workspace-arena hit/miss/bytes/keys.  Read-only.
    """
    from repro.backend import workspace as _workspace

    backend = get_backend()
    for name in BACKEND_NAMES:
        registry.set_gauge(
            "backend_active",
            1.0 if name == backend.name else 0.0,
            labels={"backend": name},
        )
    registry.set_gauge("backend_fell_back", 1.0 if _active_fell_back else 0.0)
    for name, value in _workspace.stats().items():
        registry.set_gauge(f"backend_{name}", float(value))
