"""Tests for per-sample losses."""

import numpy as np
import pytest

from repro.nn import SoftmaxCrossEntropy
from tests.conftest import numerical_gradient


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        losses = SoftmaxCrossEntropy().per_sample(logits, [0, 1])
        assert np.all(losses < 1e-10)

    def test_uniform_prediction_log_k(self):
        logits = np.zeros((3, 10))
        losses = SoftmaxCrossEntropy().per_sample(logits, [0, 5, 9])
        assert np.allclose(losses, np.log(10))

    def test_gradient_matches_numerical(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(4, 5))
        targets = np.array([0, 2, 4, 1])
        grad = loss.gradient(logits, targets)

        def scalar(lg):
            return float(np.sum(loss.per_sample(lg, targets)))

        num = numerical_gradient(scalar, logits.copy())
        assert np.allclose(grad, num, atol=1e-6)

    def test_gradient_rows_sum_to_zero(self, rng):
        grad = SoftmaxCrossEntropy().gradient(rng.normal(size=(6, 4)), [0, 1, 2, 3, 0, 1])
        assert np.allclose(grad.sum(axis=1), 0.0)

    def test_mean(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(8, 3))
        y = rng.integers(0, 3, size=8)
        assert loss.mean(logits, y) == pytest.approx(np.mean(loss.per_sample(logits, y)))

    def test_predict(self):
        logits = np.array([[1.0, 3.0, 2.0], [5.0, 0.0, 0.0]])
        assert np.array_equal(SoftmaxCrossEntropy().predict(logits), [1, 0])
