"""The paper's primary contribution: GeoDP, plus the DP-SGD baseline stack.

* :mod:`repro.core.perturbation` — the perturbation primitives (classic DP
  noise, Eq. 8, and GeoDP's geometric noise, Algorithm 1 steps 6-9).
* :mod:`repro.core.pipeline` — the one DP release pipeline (clip → noise →
  account → update) every DP optimizer configures.
* :mod:`repro.core.dpsgd` / :mod:`repro.core.geodp` /
  :mod:`repro.core.geodp_adam` — DP-SGD, GeoDP-SGD and GeoDP-Adam.
* :mod:`repro.core.sgd` — non-private SGD/Momentum/Adam and DP-Adam.
* :mod:`repro.core.techniques` — IS [67] and SUR [68] training optimisations.
* :mod:`repro.core.trainer` — the training loop tying everything together.
* :mod:`repro.core.theory` — Theorem 1's efficiency-difference decomposition.
"""

from repro.core.perturbation import (
    perturb_dp,
    perturb_geodp,
    perturb_dp_batch,
    perturb_geodp_batch,
    clip_gradients,
)
from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.sgd import SgdOptimizer, AdamOptimizer, DpAdamOptimizer
from repro.core.geodp_adam import GeoDpAdamOptimizer
from repro.core.schedules import (
    ConstantSchedule,
    CosineDecay,
    ExponentialDecay,
    LinearDecay,
    Schedule,
    ScheduledOptimizer,
    StepDecay,
)
from repro.core.techniques import ImportanceSampling, SelectiveUpdateRelease
from repro.core.trainer import Trainer, TrainingHistory
from repro.core.federated import FederatedTrainer
from repro.core.theory import (
    model_efficiency,
    efficiency_difference,
    expected_item_a,
)

__all__ = [
    "perturb_dp",
    "perturb_geodp",
    "perturb_dp_batch",
    "perturb_geodp_batch",
    "clip_gradients",
    "DpSgdOptimizer",
    "GeoDpSgdOptimizer",
    "SgdOptimizer",
    "AdamOptimizer",
    "DpAdamOptimizer",
    "GeoDpAdamOptimizer",
    "Schedule",
    "ConstantSchedule",
    "LinearDecay",
    "ExponentialDecay",
    "StepDecay",
    "CosineDecay",
    "ScheduledOptimizer",
    "ImportanceSampling",
    "SelectiveUpdateRelease",
    "Trainer",
    "TrainingHistory",
    "FederatedTrainer",
    "model_efficiency",
    "efficiency_difference",
    "expected_item_a",
]
