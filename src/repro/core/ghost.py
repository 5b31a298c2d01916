"""Gradient execution modes, including the ghost-clipping fast path.

The ghost fast path replaces "materialize the ``(B, P)`` per-sample
gradient matrix, clip, sum" with two passes over the model
(:meth:`repro.nn.Sequential.loss_and_clipped_grad_sum`): a backward pass
that computes per-sample gradient *norms* from layer-local quantities, and
one clip-scaled accumulation per parametric layer from the upstream
gradient the first pass cached.  Gradient memory drops from O(B*P) to
O(P); the DP release — sensitivity, noise draw, accounting — is untouched
because the clipped sum is numerically the same quantity.  Every DP
optimizer reaches it through
:meth:`repro.core.pipeline.DpOptimizer.ghost_clipped_sum`, whose sum then
enters the shared release like any other.
"""

from __future__ import annotations

__all__ = ["GRAD_MODES", "check_grad_mode"]

#: Recognized gradient execution modes.  ``materialize`` is the default and
#: preserves bit-identical seed behaviour; ``ghost`` is the opt-in fast path;
#: ``sparse`` is the embedding-scale touched-rows path, driven by
#: :class:`repro.sparse.SparseTrainer` (the core Trainer rejects it).
GRAD_MODES = ("materialize", "ghost", "sparse")


def check_grad_mode(grad_mode: str) -> str:
    """Validate a ``grad_mode`` string and return it."""
    if grad_mode not in GRAD_MODES:
        raise ValueError(
            f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}"
        )
    return grad_mode
