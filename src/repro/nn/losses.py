"""Per-sample loss functions.

Losses return the vector of per-sample losses and the gradient of *each
sample's own loss* with respect to the network output (i.e. the stacked
per-sample gradients, not the batch mean).  This matches the paper's Eq. 4:
``g_t = (1/B) * sum_j grad l(w; s_j)`` — the ``1/B`` averaging is applied at
aggregation time by the optimizers, after per-sample clipping.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F

__all__ = ["Loss", "SoftmaxCrossEntropy"]


class Loss:
    """Interface for per-sample losses."""

    def per_sample(self, outputs: np.ndarray, targets) -> np.ndarray:
        """Vector of per-sample losses, shape ``(B,)``."""
        raise NotImplementedError

    def gradient(self, outputs: np.ndarray, targets) -> np.ndarray:
        """Gradient of each sample's loss w.r.t. ``outputs``, shape like ``outputs``."""
        raise NotImplementedError

    def mean(self, outputs: np.ndarray, targets) -> float:
        """Convenience: batch-mean loss."""
        return float(np.mean(self.per_sample(outputs, targets)))


class SoftmaxCrossEntropy(Loss):
    """Softmax + negative log-likelihood over integer class labels."""

    def per_sample(self, outputs, targets) -> np.ndarray:
        logp = F.log_softmax(outputs, axis=1)
        targets = np.asarray(targets, dtype=np.int64)
        return -logp[np.arange(outputs.shape[0]), targets]

    def gradient(self, outputs, targets) -> np.ndarray:
        probs = F.softmax(outputs, axis=1)
        return probs - F.one_hot(targets, outputs.shape[1])

    def predict(self, outputs) -> np.ndarray:
        """Hard class predictions from logits."""
        return np.argmax(outputs, axis=1)
