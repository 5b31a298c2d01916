"""Gradient checks of every layer exported from ``repro.nn``.

Each layer (residual blocks and embeddings included) is checked against
central differences, both for its batch gradients and for an individual
sample's gradient, the quantity DP-SGD clips.  :func:`check_layer` is the
checker, and its own tests make sure it catches wrong input, parameter
and per-sample gradients.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

import repro.nn as nn
from repro.backend import use_backend
from repro.nn import Layer, Linear, ReLU
from repro.utils.rng import as_rng

from tests.backend.conftest import parity_backends
from tests.conftest import numerical_gradient


@dataclass
class GradCheckReport:
    """Outcome of :func:`check_layer`."""

    passed: bool
    #: Maximum absolute error of the input gradient.
    input_error: float
    #: Maximum absolute error per parameter gradient.
    param_errors: dict[str, float] = field(default_factory=dict)
    #: Maximum per-sample-vs-summed inconsistency per parameter.
    per_sample_errors: dict[str, float] = field(default_factory=dict)
    #: Maximum error of one sample's gradient vs finite differences.
    per_sample_fd_errors: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        lines = [f"GradCheck {'PASSED' if self.passed else 'FAILED'}"]
        lines.append(f"  input gradient max error: {self.input_error:.3e}")
        for name, err in self.param_errors.items():
            lines.append(f"  d/d{name} max error: {err:.3e}")
        for name, err in self.per_sample_errors.items():
            lines.append(f"  per-sample({name}) max inconsistency: {err:.3e}")
        for name, err in self.per_sample_fd_errors.items():
            lines.append(f"  per-sample-fd({name}) max error: {err:.3e}")
        return "\n".join(lines)


def check_layer(
    layer,
    x,
    *,
    atol: float = 1e-5,
    rng=None,
    check_per_sample: bool = True,
) -> GradCheckReport:
    """Verify a layer's backward pass numerically.

    Checks (1) the input gradient against central differences of
    ``sum(forward(x) * R)`` for a random cotangent ``R``, (2) every
    parameter gradient the same way, (3) that per-sample parameter
    gradients sum to the batch gradients, and (4) that the *first sample's*
    per-sample gradient matches central differences of that sample's own
    contribution ``sum(forward(x)[0] * R[0])`` — the quantity DP-SGD clips.

    The numerical evaluations run the eval-mode forward, so the layer's
    train and eval paths must agree.  Check (4) assumes sample outputs
    depend only on their own input.

    The layer must follow the :class:`repro.nn.Layer` contract.  Stateless
    layers simply skip checks (2)-(4).
    """
    rng = as_rng(rng)
    x = np.asarray(x, dtype=np.float64)

    out = layer.forward(x, train=True)
    cotangent = rng.normal(size=out.shape)
    grad_in, grads = layer.backward(cotangent, per_sample=False)

    def scalar(x_):
        return float(np.sum(layer.forward(x_, train=False) * cotangent))

    input_error = float(
        np.abs(grad_in - numerical_gradient(scalar, x.copy())).max()
    )
    passed = input_error <= atol

    param_errors: dict[str, float] = {}
    for name, param in layer.params().items():
        original = param.copy()

        def param_scalar(p, _name=name, _orig=original):
            layer.set_param(_name, p)
            value = float(np.sum(layer.forward(x, train=False) * cotangent))
            layer.set_param(_name, _orig)
            return value

        num = numerical_gradient(param_scalar, original.copy())
        err = float(np.abs(grads[name] - num).max())
        param_errors[name] = err
        passed = passed and err <= atol

    per_sample_errors: dict[str, float] = {}
    per_sample_fd_errors: dict[str, float] = {}
    if check_per_sample and layer.params():
        layer.forward(x, train=True)
        _, per_sample = layer.backward(cotangent, per_sample=True)
        for name in grads:
            err = float(
                np.abs(per_sample[name].sum(axis=0) - grads[name]).max()
            )
            per_sample_errors[name] = err
            passed = passed and err <= max(atol, 1e-8)

        for name, param in layer.params().items():
            original = param.copy()

            def sample_scalar(p, _name=name, _orig=original):
                layer.set_param(_name, p)
                value = float(
                    np.sum(layer.forward(x, train=False)[0] * cotangent[0])
                )
                layer.set_param(_name, _orig)
                return value

            num = numerical_gradient(sample_scalar, original.copy())
            err = float(np.abs(per_sample[name][0] - num).max())
            per_sample_fd_errors[name] = err
            passed = passed and err <= atol

    return GradCheckReport(
        passed, input_error, param_errors, per_sample_errors, per_sample_fd_errors
    )


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
    """Random input with no coordinate near a ReLU kink."""
    x = rng.normal(size=shape)
    x[np.abs(x) < margin] = margin
    return x


# One spec per layer exported from repro.nn: constructor and example input.
LAYER_SPECS = {
    "Linear": dict(build=lambda: nn.Linear(4, 3, rng=0), x=lambda rng: rng.normal(size=(5, 4))),
    "ReLU": dict(build=nn.ReLU, x=lambda rng: _away_from_zero(rng, (3, 6))),
    "Flatten": dict(build=nn.Flatten, x=lambda rng: rng.normal(size=(3, 2, 2, 2))),
    "Conv2d": dict(
        build=lambda: nn.Conv2d(2, 3, 3, stride=1, padding=1, rng=0),
        x=lambda rng: rng.normal(size=(2, 2, 5, 5)),
    ),
    "MaxPool2d": dict(build=lambda: nn.MaxPool2d(2), x=lambda rng: rng.normal(size=(2, 2, 4, 4))),
    "GlobalAvgPool2d": dict(
        build=nn.GlobalAvgPool2d, x=lambda rng: rng.normal(size=(2, 3, 4, 4))
    ),
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
        report = check_layer(spec["build"](), spec["x"](rng), rng=1)
        assert report.passed, f"{name}:\n{report}"

    @pytest.mark.parametrize("backend", parity_backends())
    def test_maxpool_gradients_on_backend(self, backend, rng):
        """MaxPool2d's passes are backend kernels: the MaxPool2d row above
        runs on the default backend, this on every other available one."""
        spec = LAYER_SPECS["MaxPool2d"]
        with use_backend(backend):
            report = check_layer(spec["build"](), spec["x"](rng), rng=1)
        assert report.passed, f"MaxPool2d on {backend}:\n{report}"

    @pytest.mark.parametrize("name", sorted(LAYER_SPECS))
    def test_per_sample_gradients_exist_where_required(self, name, rng):
        """Parametric layers must expose per-sample grads (DP-SGD's input)."""
        spec = LAYER_SPECS[name]
        layer = spec["build"]()
        report = check_layer(layer, spec["x"](rng), rng=1)
        if layer.params():
            assert set(report.per_sample_fd_errors) == set(layer.params())
            assert max(report.per_sample_fd_errors.values()) <= 1e-5
