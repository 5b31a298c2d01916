"""Membership-inference evaluation substrate.

The paper motivates DP-SGD with membership-inference attacks (§I: a
white-box MIA "can infer whether a single data point belongs to the
training dataset").  This package implements a standard black-box
evaluation attack so the privacy/efficiency trade-off of DP-SGD and GeoDP
can be measured empirically, not just accounted:

* :class:`LossThresholdAttack` — Yeom et al. (CSF 2018): predict "member"
  when the per-sample loss is below a threshold fit on reference data.
* :func:`membership_advantage` / :func:`attack_roc` — evaluation metrics.

These tools are for *defensive evaluation* of the privacy mechanisms in
this library (the standard methodology in the DP literature).
"""

from repro.attacks.membership import (
    LossThresholdAttack,
    attack_roc,
    membership_advantage,
)

__all__ = [
    "LossThresholdAttack",
    "attack_roc",
    "membership_advantage",
]
