"""Layer tests: numerical gradient checks and per-sample gradient semantics.

Every layer's backward pass is checked against central differences, and the
per-sample parameter gradients are checked to (a) sum to the batch gradient
and (b) match gradients computed sample-by-sample.
"""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.nn import (
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from tests.backend.conftest import parity_backends
from tests.conftest import numerical_gradient

#: Every available backend; MaxPool2d dispatches both passes to it.
BACKENDS = ("reference", *parity_backends())


def check_input_gradient(layer, x, atol=1e-6):
    """Backward's grad_in must match d(sum of outputs * R)/dx numerically."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, train=True)
    r = rng.normal(size=out.shape)  # random cotangent
    grad_in, _ = layer.backward(r)

    def scalar(x_):
        return float(np.sum(layer.forward(x_, train=False) * r))

    num = numerical_gradient(scalar, x.copy())
    assert np.allclose(grad_in, num, atol=atol), (
        f"{layer!r}: max err {np.abs(grad_in - num).max()}"
    )


def check_param_gradients(layer, x, atol=1e-6):
    """Summed param grads must match numerical gradients of sum(out * R)."""
    rng = np.random.default_rng(1)
    out = layer.forward(x, train=True)
    r = rng.normal(size=out.shape)
    _, grads = layer.backward(r)
    for name, param in layer.params().items():
        original = param.copy()

        def scalar(p):
            layer.set_param(name, p)
            val = float(np.sum(layer.forward(x, train=False) * r))
            layer.set_param(name, original)
            return val

        num = numerical_gradient(scalar, original.copy())
        assert np.allclose(grads[name], num, atol=atol), (
            f"{layer!r}.{name}: max err {np.abs(grads[name] - num).max()}"
        )


def check_per_sample_consistency(layer, x, atol=1e-9):
    """Per-sample grads must sum to the batch grads and match isolated samples."""
    rng = np.random.default_rng(2)
    out = layer.forward(x, train=True)
    r = rng.normal(size=out.shape)
    _, summed = layer.backward(r, per_sample=False)
    layer.forward(x, train=True)
    _, per_sample = layer.backward(r, per_sample=True)
    for name in summed:
        assert per_sample[name].shape[0] == x.shape[0]
        assert np.allclose(per_sample[name].sum(axis=0), summed[name], atol=atol)
    # Each row equals the gradient computed on that sample alone.
    for j in range(x.shape[0]):
        layer.forward(x[j : j + 1], train=True)
        _, single = layer.backward(r[j : j + 1], per_sample=False)
        for name in summed:
            assert np.allclose(per_sample[name][j], single[name], atol=atol)


class TestLinear:
    def test_forward_values(self):
        layer = Linear(2, 2, rng=0)
        layer.set_param("weight", np.array([[1.0, 2.0], [3.0, 4.0]]))
        layer.set_param("bias", np.array([0.5, -0.5]))
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[4.5, 5.5]])

    def test_input_gradient(self, rng):
        check_input_gradient(Linear(5, 3, rng=0), rng.normal(size=(4, 5)))

    def test_param_gradients(self, rng):
        check_param_gradients(Linear(4, 3, rng=0), rng.normal(size=(6, 4)))

    def test_per_sample_gradients(self, rng):
        check_per_sample_consistency(Linear(4, 3, rng=0), rng.normal(size=(5, 4)))

    def test_no_bias(self, rng):
        layer = Linear(3, 2, rng=0, bias=False)
        assert "bias" not in layer.params()
        check_param_gradients(layer, rng.normal(size=(4, 3)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError, match="before forward"):
            Linear(2, 2, rng=0).backward(np.zeros((1, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="expected input"):
            Linear(3, 2, rng=0).forward(np.zeros((1, 4)))

    def test_set_unknown_param(self):
        with pytest.raises(KeyError):
            Linear(2, 2, rng=0).set_param("nope", np.zeros(1))


class TestReLU:
    def test_forward(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_input_gradient(self, rng):
        # Keep inputs away from the kink for the numerical check.
        x = rng.normal(size=(3, 6))
        x[np.abs(x) < 0.05] = 0.1
        check_input_gradient(ReLU(), x)

    def test_no_params(self):
        assert ReLU().params() == {}
        assert ReLU().num_params == 0


class TestFlatten:
    def test_round_trip_shape(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 60)
        grad_in, _ = layer.backward(out)
        assert grad_in.shape == x.shape

    def test_input_gradient(self, rng):
        check_input_gradient(Flatten(), rng.normal(size=(2, 3, 2, 2)))


class TestConv2d:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=0)
        out = layer.forward(rng.normal(size=(2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_strided_output_shape(self, rng):
        layer = Conv2d(2, 4, 3, stride=2, padding=1, rng=0)
        out = layer.forward(rng.normal(size=(1, 2, 8, 8)))
        assert out.shape == (1, 4, 4, 4)

    def test_input_gradient(self, rng):
        check_input_gradient(
            Conv2d(2, 3, 3, stride=1, padding=1, rng=0), rng.normal(size=(2, 2, 5, 5))
        )

    def test_input_gradient_strided(self, rng):
        check_input_gradient(
            Conv2d(2, 2, 3, stride=2, padding=0, rng=0), rng.normal(size=(2, 2, 7, 7))
        )

    def test_param_gradients(self, rng):
        check_param_gradients(
            Conv2d(2, 3, 3, stride=1, padding=1, rng=0), rng.normal(size=(2, 2, 4, 4))
        )

    def test_per_sample_gradients(self, rng):
        check_per_sample_consistency(
            Conv2d(2, 3, 3, stride=1, padding=1, rng=0), rng.normal(size=(4, 2, 4, 4))
        )

    def test_no_bias(self, rng):
        layer = Conv2d(1, 2, 3, rng=0, bias=False)
        assert "bias" not in layer.params()
        check_param_gradients(layer, rng.normal(size=(2, 1, 5, 5)))

    def test_channel_validation(self):
        with pytest.raises(ValueError, match="expected input"):
            Conv2d(3, 2, 3, rng=0).forward(np.zeros((1, 2, 8, 8)))


def axis_maxpool(x, k, grad_out):
    """Max pooling by reductions over the window axes (3, 5): the golden."""
    b, c, h, w = x.shape
    windows = x.reshape(b, c, h // k, k, w // k, k)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    counts = mask.sum(axis=(3, 5), keepdims=True)
    spread = mask * grad_out[:, :, :, None, :, None] / np.maximum(counts, 1)
    return out, spread.reshape(x.shape)


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestMaxPool2d:
    """Every test runs on each available backend: the layer's passes are
    backend kernels, and ``cext`` runs 2x2 windows in C."""

    def test_forward_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        for name in BACKENDS:
            with use_backend(name):
                out = MaxPool2d(2).forward(x)
            assert np.array_equal(out[0, 0], [[5, 7], [13, 15]]), name

    def test_input_gradient(self, rng):
        # Distinct values avoid ties, making max differentiable.
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        for name in BACKENDS:
            with use_backend(name):
                check_input_gradient(MaxPool2d(2), x)

    def test_tie_gradient_is_split(self):
        # A window of 4 ties and, beside it, ties of 3 and 2 and a lone max.
        x = np.array([[[[1.0, 1.0, 2.0, 2.0, 0.0, 2.0, 3.0, 0.0],
                        [1.0, 1.0, 2.0, 0.0, 2.0, 0.0, 1.0, 2.0]]]])
        grad_out = np.array([[[[4.0, 3.0, 2.0, 1.0]]]])
        expected = np.array([[[[1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0],
                               [1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0]]]])
        for name in BACKENDS:
            layer = MaxPool2d(2)
            with use_backend(name):
                layer.forward(x, train=True)
                grad_in, _ = layer.backward(grad_out)
            assert np.array_equal(grad_in, expected), name

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            MaxPool2d(3).forward(np.zeros((1, 1, 8, 8)))

    def test_backward_rejects_mis_shaped_upstream(self):
        """A (B, C, 1, 1) upstream used to broadcast over every position."""
        x = np.arange(96, dtype=np.float64).reshape(2, 3, 4, 4)
        for name in BACKENDS:
            layer = MaxPool2d(2)
            with use_backend(name):
                layer.forward(x, train=True)
                for shape in [(2, 3, 1, 1), (2, 3, 2), (2, 3, 2, 3)]:
                    with pytest.raises(ValueError, match="pooled shape"):
                        layer.backward(np.ones(shape))

    @pytest.mark.parametrize("kernel", [1, 2, 3])
    @pytest.mark.parametrize("inputs", ["relu_normal", "small_int"])
    def test_bit_parity_with_axis_reduction(self, kernel, inputs):
        rng = np.random.default_rng(kernel)
        shape = (3, 2, 12, 18)
        if inputs == "relu_normal":
            # All-zero windows tie every position.
            x = np.maximum(rng.normal(size=shape), 0.0)
        else:
            # Values in {0, 1, 2} force 2- and 3-way ties; 1/3 is inexact.
            x = rng.integers(0, 3, size=shape).astype(np.float64)
        self._check_bit_parity(x, kernel, rng)

    def test_bit_parity_on_cnn_shaped_input(self):
        rng = np.random.default_rng(7)
        x = np.maximum(rng.normal(size=(128, 8, 28, 28)), 0.0)
        self._check_bit_parity(x, 2, rng)

    @staticmethod
    def _check_bit_parity(x, kernel, rng):
        batch, channels, height, width = x.shape
        grad_out = rng.normal(size=(batch, channels, height // kernel, width // kernel))
        expected_out, expected_grad_in = axis_maxpool(x, kernel, grad_out)
        for name in BACKENDS:
            layer = MaxPool2d(kernel)
            with use_backend(name):
                out = layer.forward(x, train=True)
                grad_in, _ = layer.backward(grad_out)
            assert_bits_equal(out, expected_out)
            assert_bits_equal(grad_in, expected_grad_in)


@pytest.mark.parametrize("pool", [MaxPool2d])
def test_pooling_rejects_non_4d_input(pool):
    with pytest.raises(ValueError, match=r"expected \(B, C, H, W\), got \(4, 16\)"):
        pool(2).forward(np.zeros((4, 16)))


class TestGlobalAvgPool2d:
    def test_forward(self, rng):
        x = rng.normal(size=(3, 4, 5, 5))
        out = GlobalAvgPool2d().forward(x)
        assert out.shape == (3, 4)
        assert np.allclose(out, x.mean(axis=(2, 3)))

    def test_input_gradient(self, rng):
        check_input_gradient(GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))
