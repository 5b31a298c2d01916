"""Minimal neural-network substrate with exact per-sample gradients.

DP-SGD (and therefore GeoDP-SGD) clips *per-sample* gradients, so unlike a
generic autodiff framework every layer here can return the gradient of each
sample's loss with respect to its parameters (the quantity Opacus computes
with hooks).  Layers are numpy-only; convolutions use im2col so the forward
pass and per-sample gradients reduce to batched matrix products (BLAS).
"""

from repro.nn.functional import (
    relu,
    softmax,
    log_softmax,
    one_hot,
    im2col,
    col2im,
    conv_output_shape,
)
from repro.nn.initializers import (
    zeros_init,
    normal_init,
    xavier_uniform,
    kaiming_uniform,
)
from repro.nn.layers import (
    Layer,
    Linear,
    ReLU,
    Flatten,
    Conv2d,
    MaxPool2d,
    GlobalAvgPool2d,
)
from repro.nn.residual import ResidualBlock
from repro.nn.embedding import Embedding, SequenceMean
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.model import Sequential

__all__ = [
    "relu",
    "softmax",
    "log_softmax",
    "one_hot",
    "im2col",
    "col2im",
    "conv_output_shape",
    "zeros_init",
    "normal_init",
    "xavier_uniform",
    "kaiming_uniform",
    "Layer",
    "Linear",
    "ReLU",
    "Flatten",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "ResidualBlock",
    "Embedding",
    "SequenceMean",
    "Loss",
    "SoftmaxCrossEntropy",
    "Sequential",
]
