"""Per-sample gradient clipping strategies.

Every strategy gives each sample one scale factor ``c_i`` computed from its
pre-clip L2 norm, under a constant bound ``C`` (:attr:`clip_norm`): the
clipped gradient is ``c_i * g_i`` and its norm is at most ``C``, which is
the :meth:`~ClippingStrategy.sensitivity` that calibrates the DP noise.  A
strategy supplies only :meth:`~ClippingStrategy.clip_factors`; the base
class derives the materialized clip from it, and the ghost and sparse
paths call it directly on norms they compute without ``(B, d)``.

Implemented strategies:

* :class:`FlatClipping` — the paper's Eq. 6 (Abadi et al.):
  ``g / max(1, ||g|| / C)``.
* :class:`AutoSClipping` — AUTO-S automatic clipping (Bu et al., NeurIPS
  2023, ref [58]): ``C * g / (||g|| + gamma)``; always rescales, never
  truncates, with a stability constant ``gamma``.
* :class:`PsacClipping` — per-sample adaptive clipping (Xia et al., AAAI
  2023, ref [51]): a *non-monotonic* weight
  ``C * ||g|| / (||g||^2 + gamma)`` that attenuates both very large
  gradients (like flat clipping) and very small ones (whose direction is
  mostly noise), concentrating the fixed noise budget on informative
  samples.  Clipped norm ``C * ||g||^2 / (||g||^2 + gamma) < C``.

The returned clipped gradients are *per-sample*; aggregation (sum, then
``+ noise``, then ``/ B``, Eq. 8) happens in the optimizers.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix, check_positive

__all__ = [
    "ClippingStrategy",
    "FlatClipping",
    "AutoSClipping",
    "PsacClipping",
]


class ClippingStrategy:
    """Interface: per-sample scale factors from pre-clip norms, bound ``C``.

    Subclasses set :attr:`clip_norm` and implement :meth:`clip_factors`;
    everything else is derived here, so the materialized, ghost and sparse
    paths apply the same factors.
    """

    #: The constant L2 bound ``C`` on every clipped per-sample gradient.
    clip_norm: float

    def clip_factors(self, norms) -> np.ndarray:
        """Per-sample scale factors ``c_i`` from pre-clip L2 norms ``(B,)``.

        ``clip(G)[i] == clip_factors(norms)[i] * G[i]`` for any gradient
        matrix ``G`` with row norms ``norms``, which is what lets the ghost
        path obtain ``sum_i c_i g_i`` from a second backward pass without
        ever forming ``G``.
        """
        raise NotImplementedError

    def clip_with_norms(self, per_sample_grads) -> tuple[np.ndarray, np.ndarray]:
        """Clip and also return the *pre-clip* per-sample L2 norms.

        Returning the norms lets telemetry record clipping statistics
        without a second pass over the ``(B, d)`` gradient matrix.
        """
        grads = check_matrix("per_sample_grads", per_sample_grads)
        # Row norms on the hot path: single-pass einsum is ~3x faster than
        # np.linalg.norm(axis=1) on large per-sample gradient matrices.
        norms = np.sqrt(np.einsum("ij,ij->i", grads, grads))
        return grads * self.clip_factors(norms)[:, None], norms

    def clip(self, per_sample_grads) -> np.ndarray:
        """Return clipped per-sample gradients with norms <= :meth:`sensitivity`."""
        return self.clip_with_norms(per_sample_grads)[0]

    def sensitivity(self) -> float:
        """L2 bound on any single clipped per-sample gradient."""
        return self.clip_norm


class FlatClipping(ClippingStrategy):
    """Classic flat clipping of Eq. 6: rescale only gradients above ``C``."""

    def __init__(self, clip_norm: float):
        self.clip_norm = check_positive("clip_norm", clip_norm)

    def clip_factors(self, norms) -> np.ndarray:
        norms = np.asarray(norms, dtype=np.float64)
        return 1.0 / np.maximum(1.0, norms / self.clip_norm)

    def __repr__(self) -> str:
        return f"FlatClipping(clip_norm={self.clip_norm})"


class AutoSClipping(ClippingStrategy):
    """AUTO-S automatic clipping: ``C * g / (||g|| + gamma)``.

    Every gradient is rescaled (no hard truncation), which removes the
    clipping-threshold hyper-parameter's sharp failure modes; ``gamma > 0``
    keeps small gradients from being blown up to the full norm ``C`` and
    guarantees the clipped norm stays strictly below ``C``.
    """

    def __init__(self, clip_norm: float, gamma: float = 0.01):
        self.clip_norm = check_positive("clip_norm", clip_norm)
        self.gamma = check_positive("gamma", gamma)

    def clip_factors(self, norms) -> np.ndarray:
        norms = np.asarray(norms, dtype=np.float64)
        return self.clip_norm / (norms + self.gamma)

    def __repr__(self) -> str:
        return f"AutoSClipping(clip_norm={self.clip_norm}, gamma={self.gamma})"


class PsacClipping(ClippingStrategy):
    """Per-sample adaptive clipping with a non-monotonic weight function.

    ``clipped = C * ||g|| / (||g||^2 + gamma) * g``; the clipped norm
    ``C * ||g||^2 / (||g||^2 + gamma)`` increases with ``||g||`` but is
    attenuated for tiny gradients, whose directions are dominated by
    stochastic noise.  ``gamma`` sets the norm scale below which samples are
    considered uninformative.
    """

    def __init__(self, clip_norm: float, gamma: float = 0.01):
        self.clip_norm = check_positive("clip_norm", clip_norm)
        self.gamma = check_positive("gamma", gamma)

    def clip_factors(self, norms) -> np.ndarray:
        norms = np.asarray(norms, dtype=np.float64)
        # ||clipped|| = C * ||g||^2 / (||g||^2 + gamma) < C
        return self.clip_norm * norms / (norms**2 + self.gamma)

    def __repr__(self) -> str:
        return f"PsacClipping(clip_norm={self.clip_norm}, gamma={self.gamma})"
