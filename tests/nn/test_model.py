"""Tests for Sequential: flat parameter vector and gradient APIs."""

import numpy as np
import pytest

from repro.nn import Flatten, Linear, ReLU, Sequential, SoftmaxCrossEntropy
from tests.conftest import numerical_gradient


def small_mlp(rng_seed=0):
    return Sequential(
        [Linear(6, 8, rng=rng_seed), ReLU(), Linear(8, 3, rng=rng_seed + 1)],
        SoftmaxCrossEntropy(),
    )


class TestParams:
    def test_num_params(self):
        model = small_mlp()
        assert model.num_params == 6 * 8 + 8 + 8 * 3 + 3

    def test_get_set_round_trip(self, rng):
        model = small_mlp()
        flat = model.get_params()
        new = rng.normal(size=flat.shape)
        model.set_params(new)
        assert np.allclose(model.get_params(), new)

    def test_set_wrong_shape(self):
        with pytest.raises(ValueError, match="expected flat params"):
            small_mlp().set_params(np.zeros(3))

    def test_set_params_changes_forward(self, rng):
        model = small_mlp()
        x = rng.normal(size=(4, 6))
        before = model.forward(x, train=False)
        model.set_params(model.get_params() * 2.0)
        after = model.forward(x, train=False)
        assert not np.allclose(before, after)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])


class TestGradients:
    def test_mean_gradient_matches_numerical(self, rng):
        model = small_mlp()
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        _, grad = model.loss_and_gradient(x, y)

        flat0 = model.get_params()

        def scalar(p):
            model.set_params(p)
            val = model.mean_loss(x, y)
            model.set_params(flat0)
            return val

        num = numerical_gradient(scalar, flat0.copy())
        assert np.allclose(grad, num, atol=1e-6)

    def test_per_sample_gradients_average_to_mean(self, rng):
        model = small_mlp()
        x = rng.normal(size=(7, 6))
        y = rng.integers(0, 3, size=7)
        _, mean_grad = model.loss_and_gradient(x, y)
        _, per_sample = model.loss_and_per_sample_gradients(x, y)
        assert per_sample.shape == (7, model.num_params)
        assert np.allclose(per_sample.mean(axis=0), mean_grad, atol=1e-12)

    def test_per_sample_rows_match_isolated_samples(self, rng):
        model = small_mlp()
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        _, per_sample = model.loss_and_per_sample_gradients(x, y)
        for j in range(4):
            _, single = model.loss_and_gradient(x[j : j + 1], y[j : j + 1])
            assert np.allclose(per_sample[j], single, atol=1e-12)

    def test_losses_match_loss_object(self, rng):
        model = small_mlp()
        x = rng.normal(size=(3, 6))
        y = np.array([0, 1, 2])
        losses, _ = model.loss_and_per_sample_gradients(x, y)
        expected = model.loss.per_sample(model.forward(x, train=False), y)
        assert np.allclose(losses, expected)


class TestInference:
    def test_predict_shape(self, rng):
        model = small_mlp()
        preds = model.predict(rng.normal(size=(9, 6)))
        assert preds.shape == (9,)
        assert np.all((preds >= 0) & (preds < 3))

    def test_accuracy_bounds(self, rng):
        model = small_mlp()
        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 3, size=20)
        acc = model.accuracy(x, y)
        assert 0.0 <= acc <= 1.0

    def test_flatten_in_pipeline(self, rng):
        model = Sequential([Flatten(), Linear(12, 2, rng=0)], SoftmaxCrossEntropy())
        out = model.forward(rng.normal(size=(3, 3, 4)), train=False)
        assert out.shape == (3, 2)

    def test_repr_mentions_params(self):
        assert "params=" in repr(small_mlp())


class TestTraining:
    def test_mlp_learns_xor(self, rng):
        """A hidden layer must solve what logistic regression cannot."""
        x = rng.uniform(-1, 1, size=(400, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        model = Sequential(
            [Linear(2, 16, rng=0), ReLU(), Linear(16, 2, rng=1)], SoftmaxCrossEntropy()
        )
        for _ in range(400):
            _, grad = model.loss_and_gradient(x, y)
            model.set_params(model.get_params() - 0.5 * grad)
        assert model.accuracy(x, y) > 0.9
