"""Classic DP-SGD optimizer (Abadi et al. 2016; paper Eq. 8).

Per iteration: clip each per-sample gradient to norm ``C``, sum, add
``N(0, sigma^2 C^2 I)``, divide by ``B``, and take an SGD step.  Privacy is
tracked by an optional :class:`~repro.privacy.accountant.RdpAccountant`.
The clip → noise → account → update stages are the shared
:class:`~repro.core.pipeline.DpOptimizer` pipeline.
"""

from __future__ import annotations

from repro.core.pipeline import DpOptimizer, GaussianMechanism
from repro.core.sgd import SgdOptimizer
from repro.privacy.clipping import ClippingStrategy

__all__ = ["DpSgdOptimizer"]


class DpSgdOptimizer(GaussianMechanism, DpOptimizer, SgdOptimizer):
    """Differentially private SGD on flat parameter vectors.

    ``learning_rate`` is the step size ``eta`` and ``momentum`` optional
    heavy-ball momentum on the released gradient (post-processing, so the
    privacy analysis is unchanged).  The remaining keyword arguments
    (``accountant``, ``sample_rate``, ``recorder``, ``tracer``,
    ``ledger``, ``grad_mode``) are documented on
    :class:`~repro.core.pipeline.DpOptimizer`.
    """

    def __init__(
        self,
        learning_rate: float,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        rng=None,
        *,
        momentum: float = 0.0,
        **release,
    ):
        SgdOptimizer.__init__(self, learning_rate, momentum=momentum)
        DpOptimizer.__init__(self, clipping, noise_multiplier, rng, **release)
