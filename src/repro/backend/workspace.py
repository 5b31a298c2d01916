"""Reusable-workspace buffer arena for the kernel hot paths.

Every DP release used to allocate its working set from scratch —
``BENCH_1`` measured ~23 MB of fresh temporaries per
``perturb_geodp_batch`` call at the benchmark shape.  Training loops call
the release path thousands of times with *identical* shapes, so this
module keeps a small pool of float buffers keyed by ``(shape, dtype)``
and hands them back out instead of allocating:

* :func:`take` — pop a pooled buffer for the key, or allocate fresh on a
  miss.  The caller owns the buffer (contents are uninitialized, like
  ``np.empty``); ownership transfers on return, so ``take`` is safe for
  kernel *outputs* handed to callers.
* :func:`give` — donate a buffer back to the pool for reuse.  Never give
  a buffer that anything else still references.
* :func:`scratch` — context manager bundling ``take`` + guaranteed
  ``give`` for internal temporaries.
* :func:`zeros` — ``take`` + zero fill, for accumulators.

The pool is bounded (per-key and global byte caps, oldest-first
eviction) and guarded by a lock: the live metrics exporter's scrape
thread reads :func:`stats` while training runs.  :func:`invalidate`
drops every pooled buffer — call
it when the parameter shape changes in a long-lived process (the DP
optimizers do this automatically) so stale shapes cannot pin memory.

Telemetry: the module counts ``workspace_hits`` / ``workspace_misses``
/ ``workspace_bytes`` (bytes currently pooled), exposed by
:func:`stats` and published as ``backend_workspace_*`` live gauges.

The tier-1 lint (``tests/test_lint.py``) forbids direct ``np.empty`` /
``np.zeros`` in the release hot-path modules; all hot-path allocation is
funnelled through here so steady-state allocation is near zero.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "take",
    "give",
    "scratch",
    "zeros",
    "stats",
    "reset_stats",
    "invalidate",
    "note_release_shape",
    "MAX_BUFFERS_PER_KEY",
    "MAX_POOL_BYTES",
]

#: Buffers retained per ``(shape, dtype)`` key (others are dropped on give).
MAX_BUFFERS_PER_KEY = 8

#: Global cap on pooled bytes; oldest keys evict first when exceeded.
MAX_POOL_BYTES = 256 * 2**20

_lock = threading.Lock()
_pool: dict[tuple, list[np.ndarray]] = {}
_pool_bytes = 0
_hits = 0
_misses = 0


def _key(shape, dtype) -> tuple:
    shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
    return (shape, np.dtype(dtype).str)


def take(shape, dtype=np.float64) -> np.ndarray:
    """A buffer of ``shape``/``dtype`` — pooled when available, fresh otherwise.

    Contents are uninitialized.  The caller owns the result; donate it
    back with :func:`give` when it is provably dead to make the next
    ``take`` a hit.
    """
    global _pool_bytes, _hits, _misses
    key = _key(shape, dtype)
    with _lock:
        bucket = _pool.get(key)
        if bucket:
            buf = bucket.pop()
            if not bucket:
                del _pool[key]
            _pool_bytes -= buf.nbytes
            _hits += 1
            return buf
        _misses += 1
    return np.empty(key[0], dtype=dtype)


def give(buf: np.ndarray) -> None:
    """Donate a buffer back to the pool (caller must hold no other references)."""
    global _pool_bytes
    if not isinstance(buf, np.ndarray) or not buf.flags.c_contiguous:
        return
    key = _key(buf.shape, buf.dtype)
    with _lock:
        bucket = _pool.setdefault(key, [])
        if len(bucket) >= MAX_BUFFERS_PER_KEY or buf.nbytes > MAX_POOL_BYTES:
            if not bucket:
                del _pool[key]
            return
        bucket.append(buf)
        _pool_bytes += buf.nbytes
        # Evict oldest-inserted keys until back under the global cap.
        while _pool_bytes > MAX_POOL_BYTES and _pool:
            oldest = next(iter(_pool))
            if oldest == key and len(_pool) == 1 and len(bucket) == 1:
                break  # never evict the buffer just donated if it fits alone
            dropped = _pool.pop(oldest)
            _pool_bytes -= sum(b.nbytes for b in dropped)


@contextmanager
def scratch(shape, dtype=np.float64):
    """Checkout/checkin context for an internal temporary buffer."""
    buf = take(shape, dtype)
    try:
        yield buf
    finally:
        give(buf)


def zeros(shape, dtype=np.float64) -> np.ndarray:
    """A zero-filled owned buffer (pooled ``take`` + in-place fill)."""
    buf = take(shape, dtype)
    buf.fill(0)
    return buf


def stats() -> dict:
    """Current counters: ``workspace_hits`` / ``workspace_misses`` / ``workspace_bytes``."""
    with _lock:
        return {
            "workspace_hits": _hits,
            "workspace_misses": _misses,
            "workspace_bytes": _pool_bytes,
            "workspace_keys": len(_pool),
        }


def reset_stats() -> None:
    """Zero the hit/miss counters (the pool itself is untouched)."""
    global _hits, _misses
    with _lock:
        _hits = 0
        _misses = 0


def invalidate() -> None:
    """Drop every pooled buffer (e.g. after a parameter-shape change)."""
    global _pool_bytes
    with _lock:
        _pool.clear()
        _pool_bytes = 0


def note_release_shape(owner, shape) -> None:
    """Invalidate the pool when ``owner``'s release shape changes.

    The DP optimizers call this once per release: in a long-lived process
    a parameter-shape change (fine-tuning surgery, a new model behind the
    same optimizer slot) would otherwise leave the old shape's buffers
    pinned in the pool until eviction.  The previous shape is remembered
    on ``owner`` itself, so independent optimizers do not interfere.
    """
    shape = _key(shape, np.float64)[0]
    prev = getattr(owner, "_workspace_release_shape", None)
    if prev is not None and prev != shape:
        invalidate()
    owner._workspace_release_shape = shape
