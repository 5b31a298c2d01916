"""Parallel per-sample gradient map over the microbatch chunks of one lot.

DP-SGD's per-sample gradient pass is embarrassingly parallel: the clipped
sum of a lot is the sum of the clipped sums of its microbatch chunks, and
each chunk depends only on the current parameters, the chunk's sample
indices and the clipping strategy.  :class:`ParallelGradientMap`
keeps a persistent pool of forked workers that inherit the model and the
training set copy-on-write, as :func:`repro.runtime.run_jobs`' workers
inherit their job function; each task ships only the flat parameter
vector and the chunk indices.

Determinism: the workers receive the serial microbatch loop's chunks, whose
boundaries depend only on the lot size and ``microbatch_size``, and results
are reduced in chunk-index order, so the accumulated clipped sum is
bit-identical to the serial loop for any worker count.
All randomness (noise, sampling) stays in the parent process.

Fault tolerance: a crashed, hung or unpicklable lot falls back to ``None``,
telling the trainer to run that lot through its ordinary serial loop (same
numbers, just slower); after ``max_pool_failures`` consecutive failures the
map disables itself for the rest of the run.  Where fork is unavailable the
map is never available, and every lot runs serially.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.runtime.pool import (
    START_METHOD,
    exit_with_parent,
    parallel_available,
    resolve_workers,
)

__all__ = ["ParallelGradientMap"]

#: Worker-side ``(model, dataset)``, installed by :func:`_init_worker` from
#: the objects the worker inherited through fork.
_WORKER_STATE = None


def _init_worker(model, dataset):
    global _WORKER_STATE
    exit_with_parent()
    _WORKER_STATE = (model, dataset)


def _grad_chunk(task):
    """One microbatch chunk: per-sample gradients, clip, sum.

    Returns ``(clipped_sum, losses, pre_clip_norms)``; the norms let the
    parent record clipping telemetry without the gradient matrix ever
    leaving the worker.
    """
    params, indices, clipping = task
    model, dataset = _WORKER_STATE
    model.set_params(params)
    losses, grads = model.loss_and_per_sample_gradients(
        dataset.x[indices], dataset.y[indices]
    )
    clipped, norms = clipping.clip_with_norms(grads)
    return clipped.sum(axis=0), losses, norms


class ParallelGradientMap:
    """Persistent worker pool computing clipped per-sample gradient sums.

    Parameters
    ----------
    model:
        The model whose per-sample gradients are computed.  Workers inherit
        it through fork when the pool starts; the current parameters
        travel with every task.  The sums are bit-identical to the serial
        loop's on one condition, which every layer in :mod:`repro.nn`
        meets: a layer's forward pass keeps no state across calls and
        draws no random numbers, so a chunk's result depends only on the
        parameters and the chunk's samples.
    dataset:
        :class:`repro.data.Dataset`; workers inherit it through fork.
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
        self.workers = resolve_workers(workers)
        self.timeout = timeout
        self.telemetry = telemetry
        self.max_pool_failures = max_pool_failures
        self._model = model
        self._dataset = dataset
        self._failures = 0
        self._disabled = self.workers <= 1 or not parallel_available()
        self._executor: ProcessPoolExecutor | None = None

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
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp.get_context(START_METHOD),
                initializer=_init_worker,
                initargs=(self._model, self._dataset),
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
            self.close()

    def close(self) -> None:
        """Shut the pool down; the map stays unavailable afterwards."""
        self._disabled = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

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
