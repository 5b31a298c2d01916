"""Capture and restore complete training state for exact resume.

:func:`capture_training_state` takes a trainer's
:meth:`~repro.core.trainer.Trainer.state_dict` — *everything* that evolves
during training: model parameters, optimizer internals (via each
component's ``state_dict``), accountant history, every RNG bit-generator
state, SUR counters and telemetry — and adds the iteration and the
:class:`~repro.core.trainer.TrainingHistory`, into one nested dict that
:mod:`repro.checkpoint.snapshot` can persist.  :func:`restore_training_state`
applies such a dict to a freshly reconstructed trainer (same architecture,
hyper-parameters and seeds as the original run), after which training
continues bit-identically to a run that was never interrupted.  Both
trainers share this format; :class:`~repro.sparse.SparseTrainer` flushes
its deferred noise first and adds its ``lazy`` noise state.
"""

from __future__ import annotations

__all__ = [
    "capture_training_state",
    "restore_training_state",
    "history_to_state",
    "history_from_state",
]


def history_to_state(history) -> dict:
    """JSON-safe dict form of a :class:`~repro.core.trainer.TrainingHistory`."""
    return {
        "losses": [float(loss) for loss in history.losses],
        "test_accuracy": [[int(i), float(a)] for i, a in history.test_accuracy],
        "iterations": int(history.iterations),
        "sur_acceptance_rate": (
            None
            if history.sur_acceptance_rate is None
            else float(history.sur_acceptance_rate)
        ),
    }


def history_from_state(state: dict):
    """Inverse of :func:`history_to_state`."""
    from repro.core.trainer import TrainingHistory

    return TrainingHistory(
        losses=[float(loss) for loss in state["losses"]],
        test_accuracy=[(int(i), float(a)) for i, a in state["test_accuracy"]],
        iterations=int(state["iterations"]),
        sur_acceptance_rate=(
            None
            if state["sur_acceptance_rate"] is None
            else float(state["sur_acceptance_rate"])
        ),
    )


def capture_training_state(trainer, history, iteration: int) -> dict:
    """Snapshot the full mutable state of ``trainer`` after ``iteration``.

    The trainer's own :meth:`~repro.core.trainer.Trainer.state_dict` plus
    the iteration and the :class:`~repro.core.trainer.TrainingHistory`.
    """
    return {
        **trainer.state_dict(),
        "iteration": int(iteration),
        "history": history_to_state(history),
    }


def restore_training_state(trainer, state: dict):
    """Apply a captured state to ``trainer``; returns ``(history, iteration)``.

    The trainer must have been rebuilt exactly as for the original run;
    :meth:`~repro.core.trainer.Trainer.load_state_dict` then overwrites
    every mutable piece (raising :class:`~repro.checkpoint.SnapshotError`
    on a mismatched optimizer class, parameter count or SUR attachment, or
    on state it does not restore) so the next iteration continues the
    interrupted run bit-for-bit.
    """
    trainer.load_state_dict(state)
    return history_from_state(state["history"]), int(state["iteration"])
