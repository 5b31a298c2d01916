"""repro — reproduction of "Analyzing and Optimizing Perturbation of DP-SGD
Geometrically" (GeoDP, ICDE 2025).

The package is organised as:

* :mod:`repro.core` — GeoDP-SGD, DP-SGD and the training stack (the paper's
  contribution).
* :mod:`repro.geometry` — hyper-spherical coordinates, direction metrics,
  bounding-factor sensitivity.
* :mod:`repro.privacy` — mechanisms, calibration, RDP accounting, clipping.
* :mod:`repro.nn` / :mod:`repro.models` — per-sample-gradient NN substrate
  and the paper's LR/CNN/ResNet models.
* :mod:`repro.data` — procedural MNIST/CIFAR substitutes and the synthetic
  gradient dataset.
* :mod:`repro.experiments` — one module per paper table/figure.
* :mod:`repro.telemetry` — opt-in per-step metrics/tracing for training
  runs (gradient geometry diagnostics, phase spans, JSONL traces).
* :mod:`repro.checkpoint` — fault-tolerant training: atomic snapshots of
  complete training state with bit-identical resume.
* :mod:`repro.runtime` — parallel execution over forked worker processes:
  fault-tolerant job runner, concurrent experiment scheduler, and a
  parallel per-sample gradient map — all bit-identical to serial runs.

Quickstart::

    from repro import GeoDpSgdOptimizer, Trainer
    from repro.data import make_mnist_like, train_test_split
    from repro.models import build_logistic_regression

    train, test = train_test_split(make_mnist_like(2000, rng=0), rng=0)
    model = build_logistic_regression(rng=0)
    opt = GeoDpSgdOptimizer(
        learning_rate=0.5, clipping=0.1, noise_multiplier=1.0, beta=0.5, rng=0
    )
    history = Trainer(model, opt, train, test_data=test, batch_size=256, rng=0).train(100)
"""

from repro.core import (
    DpSgdOptimizer,
    GeoDpSgdOptimizer,
    SgdOptimizer,
    AdamOptimizer,
    DpAdamOptimizer,
    Trainer,
    TrainingHistory,
    perturb_dp,
    perturb_geodp,
    perturb_dp_batch,
    perturb_geodp_batch,
)
from repro.privacy import RdpAccountant, PrivacySpent
from repro.telemetry import MetricsRecorder

__version__ = "1.0.0"

__all__ = [
    "DpSgdOptimizer",
    "GeoDpSgdOptimizer",
    "SgdOptimizer",
    "AdamOptimizer",
    "DpAdamOptimizer",
    "Trainer",
    "TrainingHistory",
    "perturb_dp",
    "perturb_geodp",
    "perturb_dp_batch",
    "perturb_geodp_batch",
    "RdpAccountant",
    "PrivacySpent",
    "MetricsRecorder",
    "__version__",
]
