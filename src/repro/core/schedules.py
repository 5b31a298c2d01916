"""Learning-rate and noise-multiplier schedules.

The paper notes (§IV) that "existing works apply lower noise scale when
DP-SGD is about to converge" to shrink Item A near the optimum.  These
schedules implement that pattern for both the learning rate and the noise
multiplier; :class:`ScheduledOptimizer` wraps any optimizer from
:mod:`repro.core` and updates its hyper-parameters each step.

Accounting note: a *decreasing* noise multiplier costs more privacy per
step; the wrapper keeps the wrapped optimizer's accountant in the loop so
the heterogeneous steps are composed correctly (the RDP accountant already
supports per-step multipliers).
"""

from __future__ import annotations

from repro.utils.validation import check_positive

__all__ = ["Schedule", "LinearDecay", "ScheduledOptimizer"]


class Schedule:
    """Maps an iteration index (0-based) to a hyper-parameter value."""

    def value(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        return self.value(step)


class LinearDecay(Schedule):
    """Linear interpolation from ``start`` to ``end`` over ``total_steps``."""

    def __init__(self, start: float, end: float, total_steps: int):
        self.start = check_positive("start", start, strict=False)
        self.end = check_positive("end", end, strict=False)
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps}")
        self.total_steps = total_steps

    def value(self, step: int) -> float:
        frac = min(step / self.total_steps, 1.0)
        return self.start + (self.end - self.start) * frac


class ScheduledOptimizer:
    """Wrap an optimizer, driving its hyper-parameters from schedules.

    Parameters
    ----------
    optimizer:
        Any optimizer with ``learning_rate`` (and optionally
        ``noise_multiplier``) attributes and a ``step(params, grads)``.
    learning_rate / noise_multiplier:
        Optional :class:`Schedule` instances; missing ones leave the wrapped
        optimizer's value untouched.

    The schedules advance once per update.  A DP optimizer announces every
    release through its ``release_hooks`` — whichever entry point the
    trainer used (``step``, or ``step_presummed`` from its chunk loop) —
    so the wrapper hooks in there; other optimizers advance in
    :meth:`step`.  The hook stays for good, so a DP optimizer can be
    scheduled only once.
    """

    def __init__(
        self,
        optimizer,
        *,
        learning_rate: Schedule | None = None,
        noise_multiplier: Schedule | None = None,
    ):
        self.optimizer = optimizer
        self.lr_schedule = learning_rate
        self.noise_schedule = noise_multiplier
        if noise_multiplier is not None and not hasattr(optimizer, "noise_multiplier"):
            raise ValueError(
                f"{type(optimizer).__name__} has no noise_multiplier to schedule"
            )
        self.step_count = 0
        self._hooked = hasattr(optimizer, "release_hooks")
        if self._hooked:
            if optimizer.release_hooks:
                raise ValueError(
                    f"{type(optimizer).__name__} is already scheduled; wrap a "
                    "fresh optimizer instead"
                )
            optimizer.release_hooks.append(self._advance)

    def _advance(self) -> None:
        """Set this update's hyper-parameters on the wrapped optimizer."""
        if self.lr_schedule is not None:
            self.optimizer.learning_rate = self.lr_schedule(self.step_count)
        if self.noise_schedule is not None:
            self.optimizer.noise_multiplier = self.noise_schedule(self.step_count)
        self.step_count += 1

    def step(self, params, grads):
        """Update hyper-parameters for this step, then delegate."""
        if not self._hooked:
            self._advance()
        return self.optimizer.step(params, grads)

    def __getattr__(self, name):
        # Delegate everything else (last_noisy_gradient, accountant, ...).
        return getattr(self.optimizer, name)

    def __repr__(self) -> str:
        return f"ScheduledOptimizer({self.optimizer!r})"
