"""The paper's three evaluation models (§VI-A), built on :mod:`repro.nn`."""

from repro.models.logistic import build_logistic_regression
from repro.models.cnn import build_cnn
from repro.models.resnet import build_resnet
from repro.models.text import build_text_classifier

__all__ = [
    "build_logistic_regression",
    "build_cnn",
    "build_resnet",
    "build_text_classifier",
]
