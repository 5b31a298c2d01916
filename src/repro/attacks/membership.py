"""Black-box membership-inference attacks and their evaluation metrics.

Attack API: ``fit`` on reference data, then ``score(model, x, y)`` returns a
membership score per sample (higher = more likely a training member).
Evaluation compares scores on true members vs non-members.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LossThresholdAttack",
    "membership_advantage",
    "attack_roc",
]


class LossThresholdAttack:
    """Yeom et al. loss-threshold membership inference.

    The attacker guesses "member" when the target model's loss on a sample
    is below a threshold.  ``fit`` chooses the threshold as the mean loss on
    known non-member (reference) data — the classic calibration — or the
    midpoint between member/non-member means when both are supplied.
    """

    def __init__(self):
        self.threshold: float | None = None

    def fit(self, model, reference, member_data=None) -> "LossThresholdAttack":
        """Calibrate the threshold on reference (non-member) data."""
        x, y = reference.x, reference.y
        ref_losses = model.loss.per_sample(model.forward(x, train=False), y)
        if member_data is not None:
            m_losses = model.loss.per_sample(
                model.forward(member_data.x, train=False), member_data.y
            )
            self.threshold = float((np.mean(ref_losses) + np.mean(m_losses)) / 2)
        else:
            self.threshold = float(np.mean(ref_losses))
        return self

    def score(self, model, x, y) -> np.ndarray:
        """Membership scores: negative per-sample loss (higher = member-like)."""
        losses = model.loss.per_sample(model.forward(x, train=False), y)
        return -losses

    def predict(self, model, x, y) -> np.ndarray:
        """Hard member/non-member decisions using the fitted threshold."""
        if self.threshold is None:
            raise RuntimeError("call fit() before predict()")
        losses = model.loss.per_sample(model.forward(x, train=False), y)
        return losses < self.threshold


def membership_advantage(member_scores, non_member_scores) -> float:
    """Yeom et al. membership advantage: ``max_t (TPR(t) - FPR(t))`` in [0, 1].

    0 means the attack is no better than chance; 1 is perfect separation.
    """
    fpr, tpr = attack_roc(member_scores, non_member_scores)
    return float(np.max(tpr - fpr))


def attack_roc(member_scores, non_member_scores) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve (FPR, TPR) of a score-based membership attack."""
    member_scores = np.asarray(member_scores, dtype=np.float64)
    non_member_scores = np.asarray(non_member_scores, dtype=np.float64)
    if member_scores.size == 0 or non_member_scores.size == 0:
        raise ValueError("both score arrays must be non-empty")
    thresholds = np.unique(np.concatenate([member_scores, non_member_scores]))
    # Evaluate "score >= t" for each threshold, descending.
    thresholds = thresholds[::-1]
    tpr = np.array([(member_scores >= t).mean() for t in thresholds])
    fpr = np.array([(non_member_scores >= t).mean() for t in thresholds])
    return np.concatenate([[0.0], fpr, [1.0]]), np.concatenate([[0.0], tpr, [1.0]])
