"""GeoDP-SGD optimizer (the paper's Algorithm 1).

Per iteration:

1. clip each per-sample gradient and average: ``g_tilde`` (steps 5);
2. convert ``g_tilde`` to hyper-spherical coordinates ``(|g|, theta)``
   (step 6);
3. the bounding factor ``beta`` fixes the direction sensitivity
   ``Delta theta = sqrt(d+2) * beta * pi`` (step 7);
4. perturb magnitude and direction separately (step 8):
   ``|g|* = |g| + (C/B) n_sigma``,
   ``theta* = theta + (Delta theta / B) n_sigma``;
5. convert back and descend (steps 9-10).

With the same noise multiplier as DP-SGD, the direction — which Theorem 1
shows is what actually drives model efficiency — receives unbiased,
``beta``-controllable noise instead of the biased accumulation classic DP
induces (Lemma 1).  Only steps 6-9 differ from DP-SGD: clipping,
accounting and the update are the shared
:class:`~repro.core.pipeline.DpOptimizer` pipeline, and the release is
:class:`~repro.core.pipeline.GeoDpMechanism`.
"""

from __future__ import annotations

from repro.core.pipeline import DpOptimizer, GeoDpMechanism
from repro.core.sgd import SgdOptimizer
from repro.privacy.clipping import ClippingStrategy

__all__ = ["GeoDpSgdOptimizer"]


class GeoDpSgdOptimizer(GeoDpMechanism, DpOptimizer, SgdOptimizer):
    """GeoDP-SGD on flat parameter vectors (Algorithm 1).

    ``beta`` and ``sensitivity_mode`` (default ``"total"``, Algorithm 1 as
    stated) configure the spherical release; ``momentum`` is optional
    heavy-ball momentum on the released gradient.  The remaining keyword
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
        sensitivity_mode: str = "total",
        momentum: float = 0.0,
        **release,
    ):
        SgdOptimizer.__init__(self, learning_rate, momentum=momentum)
        GeoDpMechanism.__init__(self, beta, sensitivity_mode)
        DpOptimizer.__init__(self, clipping, noise_multiplier, rng, **release)
