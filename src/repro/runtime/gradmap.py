"""Parallel per-sample gradient map over the microbatch chunks of one lot.

DP-SGD's per-sample gradient pass is embarrassingly parallel: the clipped
sum of a lot is the sum of the clipped sums of its microbatch chunks, and
each chunk depends only on the current parameters, the chunk's sample
indices and the (lot-frozen) clipping strategy.  :class:`ParallelGradientMap`
keeps a persistent pool of workers that attach to the training set through
POSIX shared memory (:mod:`multiprocessing.shared_memory` — one copy of the
data for any number of workers); each task ships only the flat parameter
vector and the chunk indices.

Determinism: the workers receive the serial microbatch loop's chunks, whose
boundaries depend only on the lot size and ``microbatch_size``, and results
are reduced in chunk-index order, so the accumulated clipped sum is
bit-identical to the serial loop for any worker count.
All randomness (noise, sampling, adaptive-clipping updates) stays in the
parent process.

Fault tolerance: a crashed, hung or unpicklable lot falls back to ``None``,
telling the trainer to run that lot through its ordinary serial loop (same
numbers, just slower); after ``max_pool_failures`` consecutive failures the
map disables itself for the rest of the run.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.runtime.pool import START_METHOD, exit_with_parent, resolve_workers

__all__ = ["ParallelGradientMap"]

#: Worker-side state installed by :func:`_init_worker`:
#: ``(model, x, y, shm_x, shm_y)`` — the shared-memory handles are kept
#: alive here so the array views stay valid for the worker's lifetime.
_WORKER_STATE = None


def _init_worker(model, x_meta, y_meta):
    global _WORKER_STATE
    exit_with_parent()
    x_name, x_shape, x_dtype = x_meta
    y_name, y_shape, y_dtype = y_meta
    shm_x = shared_memory.SharedMemory(name=x_name)
    shm_y = shared_memory.SharedMemory(name=y_name)
    x = np.ndarray(x_shape, dtype=np.dtype(x_dtype), buffer=shm_x.buf)
    y = np.ndarray(y_shape, dtype=np.dtype(y_dtype), buffer=shm_y.buf)
    _WORKER_STATE = (model, x, y, shm_x, shm_y)


def _grad_chunk(task):
    """One microbatch chunk: per-sample gradients, clip, sum.

    Returns ``(clipped_sum, losses, pre_clip_norms)``; the norms let the
    parent replay adaptive-clipping observations and telemetry without the
    gradient matrix ever leaving the worker.
    """
    params, indices, clipping = task
    model, x, y, _, _ = _WORKER_STATE
    model.set_params(params)
    losses, grads = model.loss_and_per_sample_gradients(x[indices], y[indices])
    clipped, norms = clipping.clip_with_norms(grads)
    return clipped.sum(axis=0), losses, norms


def _share_array(array: np.ndarray) -> tuple[shared_memory.SharedMemory, tuple]:
    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    return shm, (shm.name, array.shape, array.dtype.str)


class ParallelGradientMap:
    """Persistent worker pool computing clipped per-sample gradient sums.

    Parameters
    ----------
    model:
        The model whose per-sample gradients are computed.  A copy is
        shipped to each worker once; the current parameters travel with
        every task.  Models with cross-step forward state (e.g. BatchNorm
        running statistics) are rejected — their serial chunk loop is
        order-dependent, so sharding it would change results.
    dataset:
        :class:`repro.data.Dataset`; its arrays are snapshotted into shared
        memory at construction.
    workers:
        Worker-process count (``None``/``"auto"``: one per CPU).
    timeout:
        Optional per-lot wall-clock limit in seconds; an overdue lot is
        abandoned (the trainer recomputes it serially) and the pool killed.
    telemetry:
        Optional recorder for ``gradmap_*`` progress counters.
    """

    def __init__(
        self,
        model,
        dataset,
        *,
        workers,
        timeout: float | None = None,
        telemetry=None,
        max_pool_failures: int = 2,
    ):
        for layer in getattr(model, "layers", []):
            if hasattr(layer, "running_mean") or hasattr(layer, "running_var"):
                raise ValueError(
                    f"{type(layer).__name__} keeps running statistics across "
                    "steps; the parallel gradient map cannot reproduce the "
                    "serial chunk order for such models"
                )
        self.workers = resolve_workers(workers)
        self.timeout = timeout
        self.telemetry = telemetry
        self.max_pool_failures = max_pool_failures
        self._model = model
        self._failures = 0
        self._disabled = self.workers <= 1
        self._executor: ProcessPoolExecutor | None = None
        self._shm: list[shared_memory.SharedMemory] = []
        self._x_meta = None
        self._y_meta = None
        self._dataset = dataset
        self._finalizer = weakref.finalize(self, _release, self._shm)

    # ------------------------------------------------------------ lifecycle
    @property
    def available(self) -> bool:
        """Whether the map will attempt parallel execution for the next lot."""
        return not self._disabled

    def _ensure_started(self) -> bool:
        if self._disabled:
            return False
        if self._executor is not None:
            return True
        try:
            if not self._shm:
                shm_x, self._x_meta = _share_array(self._dataset.x)
                self._shm.append(shm_x)
                shm_y, self._y_meta = _share_array(self._dataset.y)
                self._shm.append(shm_y)
            method = START_METHOD if START_METHOD in mp.get_all_start_methods() else None
            ctx = mp.get_context(method)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self._model, self._x_meta, self._y_meta),
            )
        except Exception:
            self._record_failure()
            return False
        return True

    def _kill_pool(self) -> None:
        if self._executor is None:
            return
        processes = getattr(self._executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None

    def _record_failure(self) -> None:
        self._failures += 1
        if self.telemetry is not None:
            self.telemetry.increment("gradmap_fallbacks")
        self._kill_pool()
        if self._failures >= self.max_pool_failures:
            self._disabled = True
            self.close()

    def close(self) -> None:
        """Shut the pool down and release the shared-memory snapshot."""
        self._disabled = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        _release(self._shm)

    # ------------------------------------------------------------- mapping
    def map_chunks(self, params: np.ndarray, chunks, clipping) -> list | None:
        """Compute ``(clipped_sum, losses, norms)`` for every chunk, in order.

        ``chunks`` is a sequence of index arrays (one per microbatch).
        Returns ``None`` when parallel execution is unavailable or fails —
        the caller then runs its serial loop, which produces the same
        numbers.
        """
        chunks = [np.asarray(chunk) for chunk in chunks]
        if not chunks:
            return []
        if not self._ensure_started():
            return None
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        try:
            futures = [
                self._executor.submit(_grad_chunk, (params, chunk, clipping))
                for chunk in chunks
            ]
            results = []
            for future in futures:
                budget = None if deadline is None else max(0.0, deadline - time.monotonic())
                results.append(future.result(timeout=budget))
        except Exception:
            self._record_failure()
            return None
        if self.telemetry is not None:
            self.telemetry.increment("gradmap_lots_parallel")
        return results


def _release(shm_blocks: list) -> None:
    while shm_blocks:
        shm = shm_blocks.pop()
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
