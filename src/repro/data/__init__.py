"""Dataset substrate.

The paper evaluates on MNIST, CIFAR-10 and a synthetic gradient dataset.
This environment is offline, so :mod:`repro.data.mnist_like` and
:mod:`repro.data.cifar_like` generate procedural stand-ins that exercise the
same code paths (documented in DESIGN.md §1), and
:mod:`repro.data.gradients` reproduces the paper's §VI-A gradient-collection
protocol (gradients recorded from non-private CNN training at B=1).
"""

from repro.data.datasets import Dataset, train_test_split
from repro.data.mnist_like import make_mnist_like
from repro.data.cifar_like import make_cifar_like
from repro.data.text_like import make_text_like
from repro.data.clicklog import make_click_log
from repro.data.sampling import iterate_minibatches, minibatch_indices, poisson_indices
from repro.data.gradients import collect_training_gradients, synthetic_gradient_batch

__all__ = [
    "Dataset",
    "train_test_split",
    "make_mnist_like",
    "make_cifar_like",
    "make_text_like",
    "make_click_log",
    "iterate_minibatches",
    "minibatch_indices",
    "poisson_indices",
    "collect_training_gradients",
    "synthetic_gradient_batch",
]
