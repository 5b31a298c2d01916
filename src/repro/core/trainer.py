"""Training loop tying model, optimizer, sampler, accountant and techniques.

The trainer is deliberately simple: one uniform minibatch per iteration
(the paper's setting), per-sample or mean gradients depending on what the
optimizer requires, optional importance sampling of the batch (IS) and
optional selective update/release (SUR).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.ghost import check_grad_mode
from repro.core.techniques import ImportanceSampling, SelectiveUpdateRelease
from repro.data.sampling import minibatch_indices
from repro.telemetry.diagnostics import record_clipping
from repro.telemetry.tracing import joint_span, maybe_span
from repro.utils.rng import as_rng

__all__ = ["Trainer", "TrainingHistory"]

#: Optimizer attributes that the descent step mutates (momentum velocity,
#: Adam moments).  SUR must roll these back together with the parameters
#: when it rejects an update, otherwise the rejected noisy gradient keeps
#: steering every subsequent accepted step through the momentum buffer.
_UPDATE_STATE_ATTRS = ("_velocity", "_m", "_v", "_t")


def _unwrap_optimizer(optimizer):
    """Follow ScheduledOptimizer-style wrappers to the stateful optimizer."""
    inner = getattr(optimizer, "optimizer", None)
    return inner if inner is not None else optimizer


def _capture_update_state(optimizer) -> dict:
    """Copy the optimizer attributes mutated by a descent step."""
    optimizer = _unwrap_optimizer(optimizer)
    state = {}
    for name in _UPDATE_STATE_ATTRS:
        if hasattr(optimizer, name):
            value = getattr(optimizer, name)
            state[name] = value.copy() if isinstance(value, np.ndarray) else value
    return state


def _restore_update_state(optimizer, state: dict) -> None:
    """Undo a descent step's mutations (inverse of :func:`_capture_update_state`)."""
    optimizer = _unwrap_optimizer(optimizer)
    for name, value in state.items():
        setattr(optimizer, name, value.copy() if isinstance(value, np.ndarray) else value)


@dataclass
class TrainingHistory:
    """Metrics recorded during :meth:`Trainer.train`."""

    #: Mean train-batch loss per iteration.
    losses: list[float] = field(default_factory=list)
    #: ``(iteration, accuracy)`` pairs at evaluation points.
    test_accuracy: list[tuple[int, float]] = field(default_factory=list)
    #: Total iterations run.
    iterations: int = 0
    #: SUR acceptance rate, if SUR was active.
    sur_acceptance_rate: float | None = None

    @property
    def final_loss(self) -> float:
        """Last recorded training loss."""
        if not self.losses:
            raise ValueError("no losses recorded")
        return self.losses[-1]

    @property
    def final_accuracy(self) -> float:
        """Last recorded test accuracy."""
        if not self.test_accuracy:
            raise ValueError("no accuracy recorded")
        return self.test_accuracy[-1][1]


class Trainer:
    """Iteration-driven trainer for :class:`repro.nn.Sequential` models.

    Parameters
    ----------
    model:
        The model to train (modified in place).
    optimizer:
        Any optimizer from :mod:`repro.core`; its ``requires_per_sample``
        attribute selects the gradient path.
    train_data / test_data:
        :class:`repro.data.Dataset` instances.
    batch_size:
        Mini-batch size ``B``.
    importance_sampling:
        Optional :class:`ImportanceSampling`.  A candidate pool of
        ``pool_factor * B`` samples is drawn uniformly; the batch is then
        chosen from the pool by gradient-norm importance, reusing the pool's
        per-sample gradients (no second backward pass).
    sur:
        Optional :class:`SelectiveUpdateRelease`; rejected updates are rolled
        back.  Validation uses a fixed held-out slice of the training data.
    augment:
        Optional callable applied to each training batch's inputs (e.g. a
        :class:`repro.data.Augmenter`).  Label-preserving augmentation does
        not change the privacy analysis (one clipped gradient per sample).
    parallel_grad_workers:
        Opt-in parallel per-sample gradient computation: shard each lot's
        microbatch chunks across this many worker processes through
        :class:`repro.runtime.ParallelGradientMap`.  Requires
        ``microbatch_size`` (the chunks are the unit of sharding) and is
        incompatible with ``augment`` (whose random stream is consumed
        chunk-by-chunk in the parent).  Results are bit-identical to the
        serial loop for any worker count; on worker failure the trainer
        falls back to the serial loop automatically.  Call :meth:`close`
        (or use the trainer as a context manager) to release the workers.
    grad_mode:
        Gradient execution mode for per-sample (DP) optimizers.
        ``"materialize"`` computes the full ``(B, P)`` per-sample gradient
        matrix (bit-identical to historical behaviour); ``"ghost"`` clips
        and sums through the ghost-norm fast path — two backward passes,
        O(P) gradient memory, same DP release (see ``docs/performance.md``).
        ``None`` (default) inherits the optimizer's own ``grad_mode``
        attribute, so an optimizer built with ``grad_mode="ghost"`` routes
        the whole training loop through the fast path.  Ghost mode requires
        a clipping strategy expressible as per-sample factors
        (``supports_ghost``); with e.g. per-layer clipping the trainer
        falls back to ``"materialize"`` with a warning.  It cannot combine
        with ``importance_sampling`` (which reuses the materialized pool
        gradients) or ``parallel_grad_workers`` (whose workers materialize
        per-sample gradients; see ``docs/parallelism.md``).
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRecorder`.  When given,
        every iteration emits a :class:`~repro.telemetry.StepTrace` with the
        phase timings (``sample`` / ``forward_backward`` / ``step``, plus the
        optimizer's nested ``clip`` / ``noise`` spans) and the step's scalar
        diagnostics.  If the optimizer has a ``recorder`` slot that is still
        unset, the trainer attaches this recorder to it so DP release
        geometry (noise-to-signal, angular deviation, ...) lands in the same
        trace.  Telemetry never consumes randomness: instrumented runs are
        bit-identical to uninstrumented ones.
    tracer:
        Optional :class:`~repro.telemetry.Tracer`.  When given, every
        :meth:`train` call is recorded as a hierarchical span tree — a
        ``run`` span containing ``epoch`` spans containing per-iteration
        ``lot`` spans containing the phase spans (``sample`` /
        ``forward_backward`` / ``step`` plus the optimizer's ``clip`` /
        ``spherical`` / ``noise`` and the ``ghost`` / ``checkpoint``
        phases) — exportable to Chrome trace-event JSON.  Like the
        recorder, the tracer is attached to the optimizer's ``tracer`` slot
        if still unset, and never consumes randomness.  The tracer's
        ``granularity`` bounds the recorded depth (``"lot"`` skips the
        per-phase spans — the cheap setting; see ``docs/observability.md``).
    """

    def __init__(
        self,
        model,
        optimizer,
        train_data,
        *,
        batch_size: int,
        test_data=None,
        rng=None,
        importance_sampling: ImportanceSampling | None = None,
        sur: SelectiveUpdateRelease | None = None,
        pool_factor: int = 2,
        sur_eval_size: int = 256,
        augment=None,
        sampling: str = "uniform",
        microbatch_size: int | None = None,
        parallel_grad_workers: int | None = None,
        telemetry=None,
        tracer=None,
        grad_mode: str | None = None,
    ):
        if batch_size < 1 or batch_size > len(train_data):
            raise ValueError(
                f"batch_size must be in [1, {len(train_data)}], got {batch_size}"
            )
        if pool_factor < 1:
            raise ValueError(f"pool_factor must be >= 1, got {pool_factor}")
        self.model = model
        self.optimizer = optimizer
        self.train_data = train_data
        self.test_data = test_data
        self.batch_size = batch_size
        self.rng = as_rng(rng)
        self.importance_sampling = importance_sampling
        self.sur = sur
        self.pool_factor = pool_factor
        self.augment = augment
        if sampling not in ("uniform", "poisson"):
            raise ValueError(f"sampling must be 'uniform' or 'poisson', got {sampling!r}")
        if sampling == "poisson":
            if importance_sampling is not None:
                raise ValueError("poisson sampling cannot combine with importance sampling")
            if not getattr(optimizer, "requires_per_sample", False):
                raise ValueError("poisson sampling requires a per-sample (DP) optimizer")
            # Poisson batches vary in size, so the aggregation denominator
            # must be the fixed expected lot size, not the realised count.
            inner = _unwrap_optimizer(optimizer)
            if hasattr(inner, "lot_size") and inner.lot_size is None:
                inner.lot_size = batch_size
        self.sampling = sampling
        if grad_mode is None:
            grad_mode = getattr(optimizer, "grad_mode", "materialize")
        self.grad_mode = check_grad_mode(grad_mode)
        if self.grad_mode == "sparse":
            # The core trainer round-trips the *full* flat parameter vector
            # every iteration — O(vocab * dim) per step, which defeats the
            # touched-rows scaling the sparse path exists for.
            raise ValueError(
                "grad_mode='sparse' is driven by repro.sparse.SparseTrainer, "
                "which updates embedding rows in place; the core Trainer's "
                "full parameter round-trip would scale with the table size"
            )
        if self.grad_mode == "ghost":
            if not getattr(optimizer, "requires_per_sample", False) or not hasattr(
                optimizer, "ghost_clipped_sum"
            ):
                raise ValueError(
                    f"{type(optimizer).__name__} does not support grad_mode='ghost'"
                )
            if importance_sampling is not None:
                raise ValueError(
                    "grad_mode='ghost' cannot combine with importance sampling: "
                    "batch selection reuses the materialized pool gradients"
                )
            if parallel_grad_workers is not None:
                raise ValueError(
                    "grad_mode='ghost' cannot combine with parallel_grad_workers: "
                    "the worker pool shards materialized per-sample gradients "
                    "(see docs/parallelism.md)"
                )
            clipping = getattr(optimizer, "clipping", None)
            if clipping is not None and not getattr(clipping, "supports_ghost", False):
                warnings.warn(
                    f"{type(clipping).__name__} needs the full per-sample "
                    "gradient matrix; falling back to grad_mode='materialize'",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.grad_mode = "materialize"
                if telemetry is not None:
                    telemetry.increment("ghost_fallbacks")
        if microbatch_size is not None:
            if microbatch_size < 1:
                raise ValueError(f"microbatch_size must be >= 1, got {microbatch_size}")
            if importance_sampling is not None:
                raise ValueError("microbatching cannot combine with importance sampling")
            if not hasattr(optimizer, "clipped_sum"):
                raise ValueError(
                    f"{type(optimizer).__name__} does not support gradient accumulation"
                )
        self.microbatch_size = microbatch_size
        if parallel_grad_workers is not None:
            if int(parallel_grad_workers) < 1:
                raise ValueError(
                    f"parallel_grad_workers must be >= 1, got {parallel_grad_workers}"
                )
            if microbatch_size is None:
                raise ValueError(
                    "parallel_grad_workers requires microbatch_size (the "
                    "microbatch chunks are the unit of parallel sharding)"
                )
            if augment is not None:
                raise ValueError(
                    "parallel_grad_workers cannot combine with augment: the "
                    "augmenter's random stream is consumed chunk-by-chunk"
                )
            if not hasattr(optimizer, "clipping"):
                raise ValueError(
                    f"{type(optimizer).__name__} exposes no clipping strategy; "
                    "parallel gradient sharding needs one"
                )
        self.parallel_grad_workers = parallel_grad_workers
        self._gradmap = None
        self.telemetry = telemetry
        self.tracer = tracer
        # Attach the sinks to the (unwrapped) DP optimizer's free slots.
        inner = _unwrap_optimizer(optimizer)
        for slot, sink in (("recorder", telemetry), ("tracer", tracer)):
            if sink is None or not hasattr(inner, slot):
                continue
            if getattr(inner, slot) is None:
                setattr(inner, slot, sink)
        if sur is not None:
            eval_n = min(sur_eval_size, len(train_data))
            eval_idx = self.rng.choice(len(train_data), size=eval_n, replace=False)
            self._sur_eval = train_data.batch(eval_idx)
        else:
            self._sur_eval = None
        if parallel_grad_workers is not None:
            from repro.runtime.gradmap import ParallelGradientMap

            # Construct eagerly so model/worker validation errors surface at
            # init; the worker pool itself starts lazily on the first lot.
            self._gradmap = ParallelGradientMap(
                model, train_data, workers=parallel_grad_workers, telemetry=telemetry
            )

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the parallel gradient workers (no-op when not used)."""
        if self._gradmap is not None:
            self._gradmap.close()
            self._gradmap = None

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ steps
    def _span(self, name: str):
        """Joint recorder + tracer span for one phase (no-op when both off)."""
        return joint_span(self.telemetry, self.tracer, name)

    def _draw_indices(self, n: int) -> np.ndarray:
        if self.sampling == "poisson":
            from repro.data.sampling import poisson_indices

            return poisson_indices(n, min(self.batch_size / n, 1.0), self.rng)
        return minibatch_indices(n, self.batch_size, self.rng)

    def _accumulated_step(self, params: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, float]:
        """Gradient-accumulation path: clip+sum per microbatch, noise once.

        The chunks of one lot are one DP release, so adaptive clipping is
        bracketed with ``begin_lot``/``end_lot``: every chunk is clipped at
        the same frozen threshold (which is what ``sensitivity()`` reports
        when the noise is calibrated) and the threshold adapts once per
        optimizer step, not once per microbatch.
        """
        clipping = getattr(self.optimizer, "clipping", None)
        if clipping is not None:
            clipping.begin_lot()
        total = np.zeros(self.model.num_params)
        losses: list[float] = []
        try:
            outs = None
            if self._gradmap is not None and self._gradmap.available and clipping is not None:
                from repro.runtime.jobs import chunk_ranges

                chunks = [
                    idx[start:stop]
                    for start, stop in chunk_ranges(len(idx), self.microbatch_size)
                ]
                with self._span("parallel_grad"):
                    outs = self._gradmap.map_chunks(params, chunks, clipping)
            if outs is not None:
                # Reduce in chunk-index order: same additions in the same
                # order as the serial loop below, hence bit-identical sums.
                # The workers clipped against pickled copies; replaying the
                # observed norms here keeps the parent's adaptive-clipping
                # state on the serial trajectory.
                recorder = getattr(self.optimizer, "recorder", None)
                for chunk_sum, chunk_losses, norms in outs:
                    clipping.observe(norms)
                    if recorder is not None:
                        record_clipping(
                            recorder, None, clipping.sensitivity(), norms=norms
                        )
                    total += chunk_sum
                    losses.extend(chunk_losses.tolist())
            else:
                for start in range(0, len(idx), self.microbatch_size):
                    chunk = idx[start : start + self.microbatch_size]
                    with self._span("sample"):
                        x, y = self.train_data.batch(chunk)
                        if self.augment is not None:
                            x = self.augment(x)
                    if self.grad_mode == "ghost":
                        with self._span("forward_backward"):
                            chunk_losses, chunk_sum = self.optimizer.ghost_clipped_sum(
                                self.model, x, y
                            )
                        total += chunk_sum
                    else:
                        with self._span("forward_backward"):
                            chunk_losses, grads = self.model.loss_and_per_sample_gradients(x, y)
                        total += self.optimizer.clipped_sum(grads)
                    losses.extend(chunk_losses.tolist())
        finally:
            if clipping is not None:
                clipping.end_lot()
        with self._span("step"):
            new_params = self.optimizer.step_presummed(params, total, len(idx))
        batch_loss = float(np.mean(losses)) if losses else float("nan")
        return new_params, batch_loss

    def _ghost_step(self, params: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, float]:
        """Ghost fast path: clip-and-sum without the ``(B, P)`` matrix.

        Same sampling, same denominator and same noise stream as the
        materialized step — only the clipped sum is computed differently,
        so losses track the materialized path to floating-point tolerance.
        """
        with self._span("sample"):
            x, y = self.train_data.batch(idx)
            if self.augment is not None and len(idx):
                x = self.augment(x)
        with self._span("forward_backward"):
            losses, clipped_sum = self.optimizer.ghost_clipped_sum(self.model, x, y)
        with self._span("step"):
            new_params = self.optimizer.step_presummed(params, clipped_sum, len(idx))
        batch_loss = float(np.mean(losses)) if len(losses) else float("nan")
        return new_params, batch_loss

    def _per_sample_step(self, params: np.ndarray) -> tuple[np.ndarray, float]:
        n = len(self.train_data)
        if self.importance_sampling is not None:
            with self._span("sample"):
                pool_size = min(self.pool_factor * self.batch_size, n)
                pool_idx = minibatch_indices(n, pool_size, self.rng)
                x, y = self.train_data.batch(pool_idx)
                if self.augment is not None:
                    x = self.augment(x)
            with self._span("forward_backward"):
                losses, grads = self.model.loss_and_per_sample_gradients(x, y)
            norms = np.linalg.norm(grads, axis=1)
            chosen = self.importance_sampling.select(norms, self.batch_size, self.rng)
            with self._span("step"):
                new_params = self.optimizer.step(params, grads[chosen])
            return new_params, float(np.mean(losses[chosen]))
        idx = self._draw_indices(n)
        if self.microbatch_size is not None:
            return self._accumulated_step(params, idx)
        if self.grad_mode == "ghost":
            return self._ghost_step(params, idx)
        with self._span("sample"):
            x, y = self.train_data.batch(idx)
            if self.augment is not None and len(idx):
                x = self.augment(x)
        if len(idx):
            with self._span("forward_backward"):
                losses, grads = self.model.loss_and_per_sample_gradients(x, y)
            batch_loss = float(np.mean(losses))
        else:
            # Empty Poisson batch: the mechanism still releases pure
            # noise (sum of zero clipped gradients plus Gaussian).
            grads = np.zeros((0, self.model.num_params))
            batch_loss = float("nan")
        with self._span("step"):
            return self.optimizer.step(params, grads), batch_loss

    def _mean_step(self, params: np.ndarray) -> tuple[np.ndarray, float]:
        with self._span("sample"):
            idx = minibatch_indices(len(self.train_data), self.batch_size, self.rng)
            x, y = self.train_data.batch(idx)
            if self.augment is not None:
                x = self.augment(x)
        with self._span("forward_backward"):
            loss, grad = self.model.loss_and_gradient(x, y)
        with self._span("step"):
            new_params = self.optimizer.step(params, grad)
        return new_params, loss

    def train_epochs(self, num_epochs: int, *, eval_every: int = 0) -> TrainingHistory:
        """Convenience: run ``ceil(N / B) * num_epochs`` iterations."""
        if num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {num_epochs}")
        steps_per_epoch = -(-len(self.train_data) // self.batch_size)
        return self.train(steps_per_epoch * num_epochs, eval_every=eval_every)

    def train(
        self,
        num_iterations: int,
        *,
        eval_every: int = 0,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        resume: bool = True,
    ) -> TrainingHistory:
        """Run ``num_iterations`` optimizer steps; returns the metric history.

        Parameters
        ----------
        eval_every:
            Evaluate on ``test_data`` every this many iterations (0: never).
        checkpoint_every / checkpoint_dir:
            When both are set, a full training-state snapshot (see
            :mod:`repro.checkpoint`) is written atomically to
            ``checkpoint_dir`` every ``checkpoint_every`` iterations.
        resume:
            When ``checkpoint_dir`` holds a valid snapshot (at or before
            ``num_iterations``), restore it and continue from there instead
            of starting over; corrupted or partial snapshot files are
            skipped with a warning.  The resumed run is bit-identical to an
            uninterrupted one.  Pass ``resume=False`` to ignore existing
            snapshots (they are then overwritten as training progresses).
        """
        with maybe_span(self.tracer, "run", "run"):
            return self._train_inner(
                num_iterations,
                eval_every=eval_every,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
            )

    def _train_inner(
        self,
        num_iterations: int,
        *,
        eval_every: int,
        checkpoint_every: int,
        checkpoint_dir,
        resume: bool,
    ) -> TrainingHistory:
        if num_iterations < 1:
            raise ValueError(f"num_iterations must be >= 1, got {num_iterations}")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        history = TrainingHistory()
        start_iteration = 0
        if checkpoint_dir is not None:
            from pathlib import Path

            from repro.checkpoint import (
                capture_training_state,
                latest_snapshot,
                restore_training_state,
                save_snapshot,
                snapshot_path,
            )

            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            if resume:
                found = latest_snapshot(
                    checkpoint_dir,
                    max_iteration=num_iterations,
                    telemetry=self.telemetry,
                )
                if found is not None:
                    _, snapshot_state = found
                    # Tracer-only span: the recorder's own state is being
                    # replaced by the snapshot here, so it cannot time this.
                    with maybe_span(self.tracer, "checkpoint"):
                        history, start_iteration = restore_training_state(
                            self, snapshot_state
                        )
        per_sample = getattr(self.optimizer, "requires_per_sample", False)
        recorder = self.telemetry
        tracer = self.tracer
        trace_epochs = tracer is not None and tracer.enabled("epoch")
        steps_per_epoch = -(-len(self.train_data) // self.batch_size)
        epoch_cm = None
        epoch_index: int | None = None

        try:
            for iteration in range(start_iteration + 1, num_iterations + 1):
                if trace_epochs:
                    epoch = (iteration - 1) // steps_per_epoch
                    if epoch != epoch_index:
                        if epoch_cm is not None:
                            epoch_cm.__exit__(None, None, None)
                        epoch_cm = tracer.span("epoch", "epoch")
                        epoch_cm.__enter__().meta["index"] = float(epoch)
                        epoch_index = epoch
                with maybe_span(tracer, "lot", "lot") as lot:
                    if lot is not None:
                        lot.meta["iteration"] = float(iteration)
                    if recorder is not None:
                        recorder.start_step(iteration)
                    params = self.model.get_params()
                    if self.sur is not None:
                        loss_before = self.model.mean_loss(*self._sur_eval)
                        # The descent step also advances momentum/Adam
                        # buffers; a rejected update must roll those back
                        # too, or the rejected noisy gradient keeps steering
                        # later accepted steps.
                        update_state = _capture_update_state(self.optimizer)

                    if per_sample:
                        new_params, batch_loss = self._per_sample_step(params)
                    else:
                        new_params, batch_loss = self._mean_step(params)
                    self.model.set_params(new_params)

                    if self.sur is not None:
                        loss_after = self.model.mean_loss(*self._sur_eval)
                        accepted = self.sur.should_accept(loss_before, loss_after)
                        if not accepted:
                            # roll back rejected update
                            self.model.set_params(params)
                            _restore_update_state(self.optimizer, update_state)
                        if recorder is not None:
                            recorder.record("sur_accepted", float(accepted))
                            recorder.increment(
                                "sur_accepted" if accepted else "sur_rejected"
                            )

                    history.losses.append(batch_loss)
                    history.iterations = iteration
                    if (
                        eval_every
                        and self.test_data is not None
                        and iteration % eval_every == 0
                    ):
                        with self._span("eval"):
                            history.test_accuracy.append(
                                (iteration, self.evaluate())
                            )
                        if recorder is not None:
                            recorder.record(
                                "test_accuracy", history.test_accuracy[-1][1]
                            )
                    if recorder is not None:
                        recorder.record("loss", batch_loss)
                        recorder.increment("iterations")
                        recorder.end_step()
                if checkpoint_every and iteration % checkpoint_every == 0:
                    with self._span("checkpoint"):
                        save_snapshot(
                            snapshot_path(checkpoint_dir, iteration),
                            capture_training_state(self, history, iteration),
                        )
        finally:
            if epoch_cm is not None:
                epoch_cm.__exit__(None, None, None)

        if eval_every and self.test_data is not None and (
            not history.test_accuracy or history.test_accuracy[-1][0] != num_iterations
        ):
            history.test_accuracy.append((num_iterations, self.evaluate()))
            if recorder is not None:
                recorder.record(
                    "test_accuracy", history.test_accuracy[-1][1], step=num_iterations
                )
        if self.sur is not None:
            history.sur_acceptance_rate = self.sur.acceptance_rate
        return history

    def evaluate(self, *, max_samples: int | None = None, chunk: int = 512) -> float:
        """Test accuracy, computed in ``chunk``-sized pieces to bound memory."""
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if self.test_data is None:
            raise ValueError("no test_data attached")
        x, y = self.test_data.x, self.test_data.y
        if max_samples is not None:
            x, y = x[:max_samples], y[:max_samples]
        correct = 0
        for start in range(0, len(y), chunk):
            preds = self.model.predict(x[start : start + chunk])
            correct += int(np.sum(preds == y[start : start + chunk]))
        return correct / len(y)
