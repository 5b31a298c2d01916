"""GeoDP-Adam: the paper's named future-work direction (§VII).

"As for future work, we plan to study the impact of mainstream training
optimizations, such as Adam optimizer [54], on GeoDP."  This module
implements the natural composition: the per-iteration released quantity is
GeoDP's geometrically perturbed averaged gradient (identical privacy
analysis to GeoDP-SGD), which then drives Adam's moment estimates instead
of a plain SGD step.  In pipeline terms (:mod:`repro.core.pipeline`) it is
the GeoDP mechanism with the Adam update rule.
"""

from __future__ import annotations

from repro.core.pipeline import DpOptimizer, GeoDpMechanism
from repro.core.sgd import AdamOptimizer
from repro.privacy.clipping import ClippingStrategy

__all__ = ["GeoDpAdamOptimizer"]


class GeoDpAdamOptimizer(GeoDpMechanism, DpOptimizer, AdamOptimizer):
    """Adam driven by GeoDP-perturbed gradients.

    ``sensitivity_mode`` defaults to ``"per_angle"``.  On the sparse path
    Adam's moments cover only the dense block; the embedding rows take a
    plain SGD step at ``learning_rate`` (lazily-noised rows cannot keep
    per-row moments without densifying the state).  The remaining keyword
    arguments are documented on :class:`~repro.core.pipeline.DpOptimizer`.
    """

    def __init__(
        self,
        learning_rate: float,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        beta: float,
        rng=None,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        sensitivity_mode: str = "per_angle",
        **release,
    ):
        AdamOptimizer.__init__(self, learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        GeoDpMechanism.__init__(self, beta, sensitivity_mode)
        DpOptimizer.__init__(self, clipping, noise_multiplier, rng, **release)
