"""Training loop tying model, optimizer, sampler, accountant and techniques.

The trainer is deliberately simple: one uniform minibatch per iteration
(the paper's setting), per-sample gradients for a DP optimizer and mean
gradients otherwise, optional importance sampling of the batch (IS) and
optional selective update/release (SUR).  Every DP lot without IS runs one
chunk loop, and :class:`repro.sparse.SparseTrainer` replaces only the
per-lot step.  The trainer owns the lot (its size ``B`` is every
release's denominator) and the DP optimizer the release (``grad_mode``,
noise, schedules); the trainer uses only the optimizer's public methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint.snapshot import SnapshotError
from repro.core.pipeline import DpOptimizer
from repro.core.techniques import ImportanceSampling, SelectiveUpdateRelease
from repro.data.sampling import minibatch_indices
from repro.telemetry.tracing import maybe_span
from repro.utils.rng import as_rng, get_rng_state, set_rng_state

__all__ = ["Trainer", "TrainingHistory"]

#: Importance sampling draws its candidate pool as this many lots.
IS_POOL_FACTOR = 2

#: Size of the held-out training slice that scores SUR's updates.
SUR_EVAL_SIZE = 256

#: Test samples per forward pass of :meth:`Trainer.evaluate` (bounds memory).
EVAL_CHUNK = 512


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
        Any optimizer from :mod:`repro.core`.  A DP optimizer
        (:class:`~repro.core.pipeline.DpOptimizer`) gets clipped per-sample
        gradients, computed as its ``grad_mode`` says: ``"materialize"``
        builds the full ``(B, P)`` matrix, ``"ghost"`` clips and sums
        through the ghost-norm fast path (two backward passes, O(P)
        gradient memory, same DP release; see ``docs/performance.md``).
        Ghost mode cannot combine with ``importance_sampling``, which
        reuses the materialized pool gradients.  Other optimizers get the
        mean gradient.
    train_data / test_data:
        :class:`repro.data.Dataset` instances.
    batch_size:
        Lot size ``B``.  Every DP release averages over ``B``, also when a
        Poisson lot draws another count.
    importance_sampling:
        Optional :class:`ImportanceSampling`.  A candidate pool of
        ``IS_POOL_FACTOR * B`` samples is drawn uniformly; the batch is then
        chosen from the pool by gradient-norm importance, reusing the pool's
        per-sample gradients (no second backward pass).
    sur:
        Optional :class:`SelectiveUpdateRelease`; rejected updates are rolled
        back.  Validation uses a fixed held-out slice of ``SUR_EVAL_SIZE``
        training samples.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRecorder`.  When given,
        every iteration records its scalar diagnostics as series points at
        that iteration and adds one to the ``iterations`` counter (phase
        times come from ``tracer``).  If the optimizer is a DP one whose
        ``recorder`` is still unset, the trainer attaches this recorder to
        it so DP release geometry (noise-to-signal, angular deviation, ...)
        lands in the same trace.
        Telemetry never consumes randomness: instrumented runs are
        bit-identical to uninstrumented ones.
    tracer:
        Optional :class:`~repro.telemetry.Tracer`.  When given, every
        :meth:`train` call is recorded as a hierarchical span tree — a
        ``run`` span containing ``epoch`` spans containing per-iteration
        ``lot`` spans containing the phase spans (``sample`` /
        ``forward_backward`` / ``step`` plus the optimizer's ``clip`` /
        ``spherical`` / ``noise`` and the ``ghost`` / ``checkpoint``
        phases) — exportable to Chrome trace-event JSON; it is the only
        store of phase time.  Like the recorder, the tracer is attached to
        a DP optimizer's ``tracer`` if still unset, and never consumes
        randomness.  The tracer's ``granularity`` bounds the recorded depth
        (``"lot"`` skips the per-phase spans — the cheap setting; see
        ``docs/observability.md``).
    """

    #: Top-level snapshot keys this trainer restores: :meth:`state_dict`'s
    #: plus the ``iteration`` and ``history`` that
    #: :func:`~repro.checkpoint.capture_training_state` adds.
    snapshot_keys = frozenset(
        {"optimizer_class", "num_params", "model_params", "trainer_rng", "optimizer",
         "sur", "telemetry", "iteration", "history"}
    )

    #: The DP optimizer ``grad_mode`` values this trainer drives.
    grad_modes = ("materialize", "ghost")

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
        sampling: str = "uniform",
        microbatch_size: int | None = None,
        telemetry=None,
        tracer=None,
    ):
        if batch_size < 1 or batch_size > len(train_data):
            raise ValueError(
                f"batch_size must be in [1, {len(train_data)}], got {batch_size}"
            )
        self.model = model
        self.optimizer = optimizer
        self.train_data = train_data
        self.test_data = test_data
        self.batch_size = batch_size
        self.rng = as_rng(rng)
        self.importance_sampling = importance_sampling
        self.sur = sur
        dp = isinstance(optimizer, DpOptimizer)
        if sampling not in ("uniform", "poisson"):
            raise ValueError(f"sampling must be 'uniform' or 'poisson', got {sampling!r}")
        if sampling == "poisson":
            if importance_sampling is not None:
                raise ValueError("poisson sampling cannot combine with importance sampling")
            if not dp:
                raise ValueError("poisson sampling requires a per-sample (DP) optimizer")
        self.sampling = sampling
        if dp and optimizer.grad_mode not in self.grad_modes:
            # Trainer round-trips the *full* flat parameter vector every lot,
            # which would scale with a sparse optimizer's embedding table.
            raise ValueError(
                f"{type(self).__name__} drives grad_mode {self.grad_modes}, not "
                f"{optimizer.grad_mode!r} (repro.sparse.SparseTrainer drives 'sparse')"
            )
        if dp and optimizer.grad_mode == "ghost" and importance_sampling is not None:
            raise ValueError(
                "grad_mode='ghost' cannot combine with importance sampling: "
                "batch selection reuses the materialized pool gradients"
            )
        if microbatch_size is not None:
            if microbatch_size < 1:
                raise ValueError(f"microbatch_size must be >= 1, got {microbatch_size}")
            if importance_sampling is not None:
                raise ValueError("microbatching cannot combine with importance sampling")
            if not dp:
                raise ValueError(
                    f"{type(optimizer).__name__} does not support gradient accumulation"
                )
        self.microbatch_size = microbatch_size
        self.telemetry = telemetry
        self.tracer = tracer
        if dp:
            if optimizer.recorder is None:
                optimizer.recorder = telemetry
            if optimizer.tracer is None:
                optimizer.tracer = tracer
        if sur is not None:
            eval_n = min(SUR_EVAL_SIZE, len(train_data))
            eval_idx = self.rng.choice(len(train_data), size=eval_n, replace=False)
            self._sur_eval = train_data.batch(eval_idx)
        else:
            self._sur_eval = None

    # ------------------------------------------------------------------ steps
    def _lot(self) -> float:
        """Draw one lot and descend on it; returns the lot's mean loss.

        Round-trips the flat parameter vector through the model and applies
        SUR: the update is scored on the held-out slice and rolled back when
        rejected.
        """
        params = self.model.get_params()
        dp = isinstance(self.optimizer, DpOptimizer)
        if self.sur is not None:
            loss_before = self.model.mean_loss(*self._sur_eval)
            # The descent step also advances the update rule's momentum/Adam
            # buffers (a DP optimizer's rule is its base after DpOptimizer);
            # a rejected update must roll those back too, or the rejected
            # noisy gradient keeps steering later accepted steps.
            rule = super(DpOptimizer, self.optimizer) if dp else self.optimizer
            update_state = rule.state_dict()
        if dp:
            new_params, batch_loss = self._per_sample_step(params)
        else:
            new_params, batch_loss = self._mean_step(params)
        self.model.set_params(new_params)
        if self.sur is not None:
            loss_after = self.model.mean_loss(*self._sur_eval)
            accepted = self.sur.should_accept(loss_before, loss_after)
            if not accepted:
                self.model.set_params(params)
                rule.load_state_dict(update_state)
            if self.telemetry is not None:
                self.telemetry.record("sur_accepted", float(accepted))
                self.telemetry.increment("sur_accepted" if accepted else "sur_rejected")
        return batch_loss

    def _draw_indices(self, n: int) -> np.ndarray:
        if self.sampling == "poisson":
            from repro.data.sampling import poisson_indices

            return poisson_indices(n, min(self.batch_size / n, 1.0), self.rng)
        return minibatch_indices(n, self.batch_size, self.rng)

    def _accumulated_step(self, params: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, float]:
        """Every DP lot without IS: clip+sum per chunk, noise once.

        A lot is ``microbatch_size`` chunks, or one chunk when that is unset
        (an empty Poisson lot has none and releases pure noise).  The lot's
        sum starts from the first chunk's, so a one-chunk lot releases
        exactly that chunk's ghost or materialized clipped sum.  The release
        averages over ``B``, whatever count a Poisson lot drew.
        """
        size = self.microbatch_size or max(len(idx), 1)
        total = None
        losses: list[np.ndarray] = []
        for start in range(0, len(idx), size):
            chunk_sum, chunk_losses = self._clipped_chunk(idx[start : start + size])
            if total is None:
                total = chunk_sum
            else:
                total += chunk_sum
            losses.append(chunk_losses)
        if total is None:
            total = np.zeros(self.model.num_params)
        with maybe_span(self.tracer, "step"):
            new_params = self.optimizer.step_presummed(params, total, self.batch_size)
        batch_loss = float(np.mean(np.concatenate(losses))) if losses else float("nan")
        return new_params, batch_loss

    def _clipped_chunk(self, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(clipped gradient sum, per-sample losses)`` of one chunk of a lot."""
        with maybe_span(self.tracer, "sample"):
            x, y = self.train_data.batch(chunk)
        if self.optimizer.grad_mode == "ghost":
            with maybe_span(self.tracer, "forward_backward"):
                losses, clipped_sum = self.optimizer.ghost_clipped_sum(self.model, x, y)
            return clipped_sum, losses
        with maybe_span(self.tracer, "forward_backward"):
            losses, grads = self.model.loss_and_per_sample_gradients(x, y)
        return self.optimizer.clipped_sum(grads), losses

    def _per_sample_step(self, params: np.ndarray) -> tuple[np.ndarray, float]:
        n = len(self.train_data)
        if self.importance_sampling is None:
            return self._accumulated_step(params, self._draw_indices(n))
        with maybe_span(self.tracer, "sample"):
            pool_size = min(IS_POOL_FACTOR * self.batch_size, n)
            pool_idx = minibatch_indices(n, pool_size, self.rng)
            x, y = self.train_data.batch(pool_idx)
        with maybe_span(self.tracer, "forward_backward"):
            losses, grads = self.model.loss_and_per_sample_gradients(x, y)
        norms = np.linalg.norm(grads, axis=1)
        chosen = self.importance_sampling.select(norms, self.batch_size, self.rng)
        with maybe_span(self.tracer, "step"):
            new_params = self.optimizer.step(params, grads[chosen])
        return new_params, float(np.mean(losses[chosen]))

    def _mean_step(self, params: np.ndarray) -> tuple[np.ndarray, float]:
        with maybe_span(self.tracer, "sample"):
            idx = minibatch_indices(len(self.train_data), self.batch_size, self.rng)
            x, y = self.train_data.batch(idx)
        with maybe_span(self.tracer, "forward_backward"):
            loss, grad = self.model.loss_and_gradient(x, y)
        with maybe_span(self.tracer, "step"):
            new_params = self.optimizer.step(params, grad)
        return new_params, loss

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
                    with maybe_span(self.tracer, "checkpoint"):
                        history, start_iteration = restore_training_state(
                            self, snapshot_state
                        )
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
                    batch_loss = self._lot()
                    history.losses.append(batch_loss)
                    history.iterations = iteration
                    if (
                        eval_every
                        and self.test_data is not None
                        and iteration % eval_every == 0
                    ):
                        with maybe_span(tracer, "eval"):
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
                    with maybe_span(tracer, "checkpoint"):
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

    def evaluate(self) -> float:
        """Test accuracy, computed in ``EVAL_CHUNK``-sized pieces to bound memory."""
        if self.test_data is None:
            raise ValueError("no test_data attached")
        x, y = self.test_data.x, self.test_data.y
        correct = 0
        for start in range(0, len(y), EVAL_CHUNK):
            preds = self.model.predict(x[start : start + EVAL_CHUNK])
            correct += int(np.sum(preds == y[start : start + EVAL_CHUNK]))
        return correct / len(y)

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> dict:
        """Everything that evolves during training, for exact resume.

        :func:`repro.checkpoint.capture_training_state` adds the iteration
        and the history (see ``docs/checkpointing.md``).
        """
        return {
            "optimizer_class": type(self.optimizer).__name__,
            "num_params": int(self.model.num_params),
            "model_params": self.model.get_params().copy(),
            "trainer_rng": get_rng_state(self.rng),
            "optimizer": self.optimizer.state_dict(),
            "sur": None if self.sur is None else self.sur.state_dict(),
            "telemetry": (
                None if self.telemetry is None else self.telemetry.state_dict()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Apply a :meth:`state_dict` to a trainer rebuilt like the original.

        A different optimizer class or parameter count, SUR on one side
        only, or a key this trainer has nowhere to restore (state of a
        feature it does not run) raises
        :class:`~repro.checkpoint.SnapshotError` rather than silently
        resuming a different experiment.
        """
        unknown = sorted(set(state) - self.snapshot_keys)
        if unknown:
            raise SnapshotError(
                f"snapshot carries state this trainer does not restore: {unknown}"
            )
        expected = type(self.optimizer).__name__
        if state["optimizer_class"] != expected:
            raise SnapshotError(
                f"snapshot was taken with {state['optimizer_class']}, but the "
                f"trainer uses {expected}"
            )
        if int(state["num_params"]) != int(self.model.num_params):
            raise SnapshotError(
                f"snapshot has {state['num_params']} model parameters, but the "
                f"model has {self.model.num_params}"
            )
        if (state["sur"] is None) != (self.sur is None):
            raise SnapshotError(
                "snapshot and trainer disagree on whether SUR is attached"
            )
        self.model.set_params(np.asarray(state["model_params"], dtype=np.float64))
        set_rng_state(self.rng, state["trainer_rng"])
        self.optimizer.load_state_dict(state["optimizer"])
        if self.sur is not None:
            self.sur.load_state_dict(state["sur"])
        if self.telemetry is not None and state["telemetry"] is not None:
            self.telemetry.load_state_dict(state["telemetry"])
