"""Tests for the public gradient-checking utility.

Includes full per-sample-gradient coverage: every layer exported from
``repro.nn`` (normalisation and residual blocks included) is checked
against central differences, both for its batch gradients and — where the
layer supports DP's per-sample path — for an individual sample's gradient.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.backend import use_backend
from repro.nn import Layer, Linear, ReLU
from repro.nn.gradcheck import GradCheckReport, check_layer, numerical_gradient

from tests.backend.conftest import parity_backends


class TestNumericalGradient:
    def test_quadratic(self):
        grad = numerical_gradient(lambda x: float(np.sum(x**2)), np.array([1.0, -2.0]))
        assert np.allclose(grad, [2.0, -4.0], atol=1e-6)


class TestCheckLayer:
    def test_correct_layer_passes(self, rng):
        report = check_layer(Linear(4, 3, rng=0), rng.normal(size=(5, 4)), rng=1)
        assert report.passed
        assert report.input_error < 1e-5
        assert set(report.param_errors) == {"weight", "bias"}
        assert set(report.per_sample_errors) == {"weight", "bias"}
        assert set(report.per_sample_fd_errors) == {"weight", "bias"}

    def test_stateless_layer(self, rng):
        x = rng.normal(size=(3, 6))
        x[np.abs(x) < 0.05] = 0.1
        report = check_layer(ReLU(), x, rng=1)
        assert report.passed
        assert report.param_errors == {}

    def test_buggy_layer_fails(self, rng):
        class BuggyLinear(Linear):
            def backward(self, grad_out, per_sample=False):
                grad_in, grads = super().backward(grad_out, per_sample)
                return grad_in * 1.1, grads  # wrong input gradient

        report = check_layer(BuggyLinear(3, 2, rng=0), rng.normal(size=(4, 3)), rng=1)
        assert not report.passed
        assert report.input_error > 1e-3

    def test_buggy_param_gradient_fails(self, rng):
        class BuggyParams(Linear):
            def backward(self, grad_out, per_sample=False):
                grad_in, grads = super().backward(grad_out, per_sample)
                grads = {k: v * 2.0 for k, v in grads.items()}
                return grad_in, grads

        report = check_layer(BuggyParams(3, 2, rng=0), rng.normal(size=(4, 3)), rng=1)
        assert not report.passed
        assert max(report.param_errors.values()) > 1e-3

    def test_buggy_per_sample_gradient_fails(self, rng):
        """A per-sample gradient that sums correctly but misattributes mass
        across samples is only caught by the finite-difference check."""

        class BuggyPerSample(Linear):
            def backward(self, grad_out, per_sample=False):
                grad_in, grads = super().backward(grad_out, per_sample)
                if per_sample:
                    # Shift half of sample 1's gradient onto sample 0: the
                    # sum over the batch is unchanged.
                    grads = {k: v.copy() for k, v in grads.items()}
                    for v in grads.values():
                        delta = 0.5 * v[1]
                        v[0] += delta
                        v[1] -= delta
                return grad_in, grads

        report = check_layer(BuggyPerSample(3, 2, rng=0), rng.normal(size=(4, 3)), rng=1)
        assert not report.passed
        assert max(report.per_sample_errors.values()) < 1e-8
        assert max(report.per_sample_fd_errors.values()) > 1e-3

    def test_report_str(self, rng):
        report = check_layer(Linear(2, 2, rng=0), rng.normal(size=(3, 2)), rng=1)
        text = str(report)
        assert "PASSED" in text and "weight" in text

    def test_skip_per_sample(self, rng):
        report = check_layer(
            Linear(2, 2, rng=0), rng.normal(size=(3, 2)), rng=1, check_per_sample=False
        )
        assert report.per_sample_errors == {}
        assert report.per_sample_fd_errors == {}


def _away_from_zero(rng, shape, margin=0.05):
    """Random input with no coordinate near a ReLU/LeakyReLU kink."""
    x = rng.normal(size=shape)
    x[np.abs(x) < margin] = margin
    return x


# One spec per layer exported from repro.nn: constructor and example input.
# ``train`` mirrors check_layer's flag (True for layers whose train path
# differs and must be the one differentiated); ``per_sample`` is False only
# for BatchNorm2d, which refuses the per-sample path by design.
LAYER_SPECS = {
    "Linear": dict(build=lambda: nn.Linear(4, 3, rng=0), x=lambda rng: rng.normal(size=(5, 4))),
    "ReLU": dict(build=nn.ReLU, x=lambda rng: _away_from_zero(rng, (3, 6))),
    "Flatten": dict(build=nn.Flatten, x=lambda rng: rng.normal(size=(3, 2, 2, 2))),
    "Conv2d": dict(
        build=lambda: nn.Conv2d(2, 3, 3, stride=1, padding=1, rng=0),
        x=lambda rng: rng.normal(size=(2, 2, 5, 5)),
    ),
    "MaxPool2d": dict(build=lambda: nn.MaxPool2d(2), x=lambda rng: rng.normal(size=(2, 2, 4, 4))),
    "AvgPool2d": dict(build=lambda: nn.AvgPool2d(2), x=lambda rng: rng.normal(size=(2, 2, 4, 4))),
    "GlobalAvgPool2d": dict(
        build=nn.GlobalAvgPool2d, x=lambda rng: rng.normal(size=(2, 3, 4, 4))
    ),
    "GroupNorm": dict(
        build=lambda: nn.GroupNorm(2, 4), x=lambda rng: rng.normal(size=(2, 4, 3, 3))
    ),
    "LayerNorm": dict(
        build=lambda: nn.LayerNorm((3, 4)), x=lambda rng: rng.normal(size=(2, 3, 4))
    ),
    "BatchNorm2d": dict(
        build=lambda: nn.BatchNorm2d(3),
        x=lambda rng: rng.normal(size=(2, 3, 4, 4)),
        train=True,
        per_sample=False,
    ),
    "Tanh": dict(build=nn.Tanh, x=lambda rng: rng.normal(size=(3, 5))),
    "Sigmoid": dict(build=nn.Sigmoid, x=lambda rng: rng.normal(size=(3, 5))),
    "LeakyReLU": dict(
        build=lambda: nn.LeakyReLU(0.1), x=lambda rng: _away_from_zero(rng, (3, 5))
    ),
    "Softplus": dict(build=nn.Softplus, x=lambda rng: rng.normal(size=(3, 5))),
    # Active dropout redraws its mask every forward, so only the
    # deterministic rate-0 configuration is finite-difference checkable.
    "Dropout": dict(build=lambda: nn.Dropout(0.0), x=lambda rng: rng.normal(size=(3, 5))),
    "ResidualBlock": dict(
        build=lambda: nn.ResidualBlock(2, 2, rng=0),
        x=lambda rng: rng.normal(size=(2, 2, 4, 4)),
    ),
    "ResidualBlock_projection": dict(
        build=lambda: nn.ResidualBlock(2, 3, stride=2, rng=0),
        x=lambda rng: rng.normal(size=(2, 2, 4, 4)),
    ),
    "Embedding": dict(
        build=lambda: nn.Embedding(7, 4, rng=0),
        x=lambda rng: rng.integers(0, 7, size=(3, 2)).astype(np.float64),
    ),
    "SequenceMean": dict(build=nn.SequenceMean, x=lambda rng: rng.normal(size=(3, 4, 5))),
}


class TestLayerCoverage:
    def test_every_exported_layer_has_a_spec(self):
        """New layers exported from repro.nn must add a gradcheck spec."""
        exported = {
            name
            for name in nn.__all__
            if isinstance(getattr(nn, name), type)
            and issubclass(getattr(nn, name), Layer)
            and getattr(nn, name) is not Layer
        }
        covered = {name.split("_")[0] for name in LAYER_SPECS}
        assert exported <= covered, f"layers missing gradcheck specs: {exported - covered}"

    @pytest.mark.parametrize("name", sorted(LAYER_SPECS))
    def test_layer_gradients(self, name, rng):
        spec = LAYER_SPECS[name]
        report = check_layer(
            spec["build"](),
            spec["x"](rng),
            rng=1,
            train=spec.get("train", False),
            check_per_sample=spec.get("per_sample", True),
        )
        assert report.passed, f"{name}:\n{report}"

    @pytest.mark.parametrize("backend", parity_backends())
    def test_maxpool_gradients_on_backend(self, backend, rng):
        """MaxPool2d's passes are backend kernels: the MaxPool2d row above
        runs on the default backend, this on every other available one."""
        spec = LAYER_SPECS["MaxPool2d"]
        with use_backend(backend):
            report = check_layer(spec["build"](), spec["x"](rng), rng=1)
        assert report.passed, f"MaxPool2d on {backend}:\n{report}"

    @pytest.mark.parametrize(
        "name", [n for n, s in sorted(LAYER_SPECS.items()) if s.get("per_sample", True)]
    )
    def test_per_sample_gradients_exist_where_required(self, name, rng):
        """Parametric layers must expose per-sample grads (DP-SGD's input)."""
        spec = LAYER_SPECS[name]
        layer = spec["build"]()
        report = check_layer(layer, spec["x"](rng), rng=1, train=spec.get("train", False))
        if layer.params():
            assert set(report.per_sample_fd_errors) == set(layer.params())
            assert max(report.per_sample_fd_errors.values()) <= 1e-5

    def test_batchnorm_refuses_per_sample(self, rng):
        layer = nn.BatchNorm2d(3)
        layer.forward(rng.normal(size=(2, 3, 4, 4)), train=True)
        with pytest.raises(RuntimeError, match="GroupNorm"):
            layer.backward(rng.normal(size=(2, 3, 4, 4)), per_sample=True)
