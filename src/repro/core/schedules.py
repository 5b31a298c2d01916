"""Learning-rate and noise-multiplier schedules.

The paper notes (§IV) that "existing works apply lower noise scale when
DP-SGD is about to converge" to shrink Item A near the optimum.
:func:`schedule` implements that pattern for both the learning rate and
the noise multiplier of a DP optimizer from :mod:`repro.core`.  A schedule
is any callable ``step -> value``; :class:`LinearDecay` is the one the
library ships.

Accounting note: a *decreasing* noise multiplier costs more privacy per
step; the hook runs before the release draws its noise, so the optimizer's
accountant composes every step at the multiplier it actually used (the RDP
accountant supports per-step multipliers).
"""

from __future__ import annotations

from repro.core.pipeline import DpOptimizer
from repro.utils.validation import check_positive

__all__ = ["LinearDecay", "schedule"]


class LinearDecay:
    """Linear interpolation from ``start`` to ``end`` over ``total_steps``."""

    def __init__(self, start: float, end: float, total_steps: int):
        self.start = check_positive("start", start, strict=False)
        self.end = check_positive("end", end, strict=False)
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps}")
        self.total_steps = total_steps

    def __call__(self, step: int) -> float:
        """The value at 0-based iteration ``step``."""
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        frac = min(step / self.total_steps, 1.0)
        return self.start + (self.end - self.start) * frac


def schedule(optimizer: DpOptimizer, *, learning_rate=None, noise_multiplier=None) -> DpOptimizer:
    """Drive a DP optimizer's learning rate and noise multiplier from schedules.

    Appends one release hook that sets each scheduled value to the
    schedule's value at index ``optimizer.releases``, the count of releases
    before this one.  The optimizer checkpoints that count, so a resumed run
    continues the schedule where the snapshot left it.  A missing schedule
    leaves its value untouched.  An optimizer can be scheduled once.
    Returns ``optimizer``.
    """
    if not isinstance(optimizer, DpOptimizer):
        raise TypeError(f"{type(optimizer).__name__} is not a DP optimizer")
    if optimizer.release_hooks:
        raise ValueError(
            f"{type(optimizer).__name__} is already scheduled; schedule a fresh "
            "optimizer instead"
        )

    def advance() -> None:
        if learning_rate is not None:
            optimizer.learning_rate = learning_rate(optimizer.releases)
        if noise_multiplier is not None:
            optimizer.noise_multiplier = noise_multiplier(optimizer.releases)

    optimizer.release_hooks.append(advance)
    return optimizer
