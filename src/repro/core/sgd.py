"""Non-private optimizers and DP-Adam.

The paper's noise-free baseline is mini-batch SGD without momentum (§II-B);
Momentum/Adam are provided as substrate for the "future work" direction the
paper names (DP-Adam [54]) and for the ablation benchmarks.  SGD and Adam
are also the two update rules of the DP release pipeline
(:mod:`repro.core.pipeline`), which applies them to the released gradient.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import DpOptimizer, GaussianMechanism
from repro.privacy.clipping import ClippingStrategy
from repro.utils.validation import check_in_range, check_positive

__all__ = ["SgdOptimizer", "AdamOptimizer", "DpAdamOptimizer"]


def _copy_or_none(value) -> np.ndarray | None:
    """Defensive copy of an optional state array (checkpoint helper)."""
    return None if value is None else np.asarray(value, dtype=np.float64).copy()


class SgdOptimizer:
    """Plain SGD, optionally with classical momentum."""

    def __init__(self, learning_rate: float, *, momentum: float = 0.0):
        self.learning_rate = check_positive("learning_rate", learning_rate)
        self.momentum = check_in_range("momentum", momentum, 0.0, 1.0, inclusive_high=False)
        self._velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One (momentum-)SGD update on the mean gradient."""
        if self.momentum == 0.0:
            return params - self.learning_rate * grad
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        self._velocity = self.momentum * self._velocity + grad
        return params - self.learning_rate * self._velocity

    def state_dict(self) -> dict:
        """Mutable optimizer state for checkpointing (see :mod:`repro.checkpoint`)."""
        return {"velocity": _copy_or_none(self._velocity)}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._velocity = _copy_or_none(state["velocity"])

    def __repr__(self) -> str:
        return f"SgdOptimizer(lr={self.learning_rate}, momentum={self.momentum})"


class AdamOptimizer:
    """Adam (Kingma & Ba 2015) on mean gradients."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = check_positive("learning_rate", learning_rate)
        self.beta1 = check_in_range("beta1", beta1, 0.0, 1.0, inclusive_high=False)
        self.beta2 = check_in_range("beta2", beta2, 0.0, 1.0, inclusive_high=False)
        self.eps = check_positive("eps", eps)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def _moments(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._m is None:
            self._m = np.zeros_like(grad)
            self._v = np.zeros_like(grad)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * grad**2
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        return m_hat, v_hat

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One Adam update on the mean gradient."""
        m_hat, v_hat = self._moments(grad)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        """Mutable optimizer state for checkpointing (see :mod:`repro.checkpoint`)."""
        return {
            "m": _copy_or_none(self._m),
            "v": _copy_or_none(self._v),
            "t": int(self._t),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._m = _copy_or_none(state["m"])
        self._v = _copy_or_none(state["v"])
        self._t = int(state["t"])

    def __repr__(self) -> str:
        return f"AdamOptimizer(lr={self.learning_rate})"


class DpAdamOptimizer(GaussianMechanism, DpOptimizer, AdamOptimizer):
    """DP-Adam: per-sample clip + Gaussian noise, then Adam moments (ref [54]).

    The privacy analysis is identical to DP-SGD (the noisy averaged gradient
    is the only data-dependent quantity entering the moments), so the same
    accountant applies.  The remaining keyword arguments are documented on
    :class:`~repro.core.pipeline.DpOptimizer`.
    """

    def __init__(
        self,
        learning_rate: float,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        rng=None,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        **release,
    ):
        AdamOptimizer.__init__(self, learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        DpOptimizer.__init__(self, clipping, noise_multiplier, rng, **release)
