"""Event model for per-iteration training telemetry.

A :class:`StepTrace` marks one closed training iteration.  The scalar
diagnostics recorded while the step was open (loss, gradient norms,
noise-to-signal ratio, angular deviation, ...) are the recorder's
``series`` points at that iteration, and the step's phase times are
``lot``/``phase`` spans of a :class:`~repro.telemetry.tracing.Tracer`.
Traces serialise to plain dicts so they can travel through the JSONL
exporter without any custom encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StepTrace"]


@dataclass
class StepTrace:
    """One closed training iteration.

    Attributes
    ----------
    iteration:
        1-based iteration index (matches ``TrainingHistory.iterations``).
    """

    iteration: int

    def to_dict(self) -> dict:
        """Plain-dict form used by the JSONL exporter."""
        return {"iteration": int(self.iteration)}

    @classmethod
    def from_dict(cls, payload: dict) -> "StepTrace":
        """Inverse of :meth:`to_dict`.

        Other keys are ignored: the ``metrics`` and ``timings`` of traces
        and checkpoints written while steps still carried a copy of the
        step's scalars and its phase times.
        """
        return cls(iteration=int(payload["iteration"]))
