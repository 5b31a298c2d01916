"""Event model for per-iteration training telemetry.

A :class:`StepTrace` is one training iteration's worth of telemetry: the
scalar diagnostics recorded while the step was open (loss, gradient norms,
noise-to-signal ratio, angular deviation, ...).  The step's phase times are
``lot``/``phase`` spans of a :class:`~repro.telemetry.tracing.Tracer`.
Traces serialise to plain dicts so they can travel through the JSONL
exporter without any custom encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StepTrace"]


@dataclass
class StepTrace:
    """Telemetry for a single training iteration.

    Attributes
    ----------
    iteration:
        1-based iteration index (matches ``TrainingHistory.iterations``).
    metrics:
        Scalar diagnostics recorded during this step, keyed by metric name.
    """

    iteration: int
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form used by the JSONL exporter."""
        return {
            "iteration": int(self.iteration),
            "metrics": {k: float(v) for k, v in self.metrics.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StepTrace":
        """Inverse of :meth:`to_dict`.

        Other keys are ignored, e.g. the ``timings`` of traces and
        checkpoints written while steps still carried phase times.
        """
        return cls(
            iteration=int(payload["iteration"]),
            metrics={k: float(v) for k, v in payload.get("metrics", {}).items()},
        )
