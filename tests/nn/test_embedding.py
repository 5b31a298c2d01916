"""Tests for the embedding/text substrate."""

import numpy as np
import pytest

from repro.nn.embedding import Embedding, SequenceMean
from tests.conftest import numerical_gradient


class TestEmbedding:
    def test_lookup(self, rng):
        layer = Embedding(10, 4, rng=0)
        tokens = np.array([[1, 2], [3, 1]])
        out = layer.forward(tokens)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out[0, 0], layer.weight[1])
        assert np.allclose(out[1, 1], layer.weight[1])

    def test_float_integer_tokens_accepted(self):
        layer = Embedding(5, 3, rng=0)
        out = layer.forward(np.array([[1.0, 4.0]]))
        assert out.shape == (1, 2, 3)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            Embedding(5, 3, rng=0).forward(np.array([[1.5]]))

    def test_out_of_vocab_rejected(self):
        with pytest.raises(ValueError, match="token ids"):
            Embedding(5, 3, rng=0).forward(np.array([[5]]))

    def test_summed_gradient_scatter(self, rng):
        layer = Embedding(6, 2, rng=0)
        tokens = np.array([[0, 0, 1]])
        layer.forward(tokens, train=True)
        grad_out = np.ones((1, 3, 2))
        _, grads = layer.backward(grad_out)
        # Token 0 appears twice, token 1 once, others never.
        assert np.allclose(grads["weight"][0], 2.0)
        assert np.allclose(grads["weight"][1], 1.0)
        assert np.allclose(grads["weight"][2:], 0.0)

    def test_per_sample_matches_isolated(self, rng):
        layer = Embedding(8, 3, rng=0)
        tokens = rng.integers(0, 8, size=(4, 5))
        layer.forward(tokens, train=True)
        grad_out = rng.normal(size=(4, 5, 3))
        _, per_sample = layer.backward(grad_out, per_sample=True)
        _, summed = (layer.forward(tokens, train=True), layer.backward(grad_out))[1]
        assert np.allclose(per_sample["weight"].sum(axis=0), summed["weight"])
        for j in range(4):
            layer.forward(tokens[j : j + 1], train=True)
            _, single = layer.backward(grad_out[j : j + 1])
            assert np.allclose(per_sample["weight"][j], single["weight"])

    def test_numerical_param_gradient(self, rng):
        layer = Embedding(5, 2, rng=0)
        tokens = np.array([[0, 3], [2, 2]])
        out = layer.forward(tokens, train=True)
        r = rng.normal(size=out.shape)
        _, grads = layer.backward(r)
        original = layer.weight.copy()

        def scalar(w):
            layer.set_param("weight", w)
            value = float(np.sum(layer.forward(tokens, train=False) * r))
            layer.set_param("weight", original)
            return value

        num = numerical_gradient(scalar, original.copy())
        assert np.allclose(grads["weight"], num, atol=1e-6)


class TestSequenceMean:
    def test_forward(self, rng):
        x = rng.normal(size=(3, 4, 5))
        out = SequenceMean().forward(x)
        assert np.allclose(out, x.mean(axis=1))

    def test_backward_distributes_evenly(self, rng):
        layer = SequenceMean()
        x = rng.normal(size=(2, 4, 3))
        layer.forward(x, train=True)
        grad_in, _ = layer.backward(np.ones((2, 3)))
        assert np.allclose(grad_in, 0.25)

    def test_invalid_shape(self):
        with pytest.raises(ValueError, match="B, L, D"):
            SequenceMean().forward(np.zeros((2, 3)))


class TestTextPipeline:
    def test_dataset_properties(self):
        from repro.data.text_like import make_text_like

        data = make_text_like(200, rng=0, num_classes=4, vocab_size=64)
        assert data.x.shape == (200, 20)
        assert data.num_classes == 4
        assert np.array_equal(data.class_counts(), [50] * 4)
        assert np.allclose(data.x, np.round(data.x))  # integer tokens

    def test_dataset_validation(self):
        from repro.data.text_like import make_text_like

        with pytest.raises(ValueError, match="vocab_size"):
            make_text_like(10, num_classes=4, vocab_size=10)

    def test_classifier_learns(self):
        from repro.core import SgdOptimizer, Trainer
        from repro.data import train_test_split
        from repro.data.text_like import make_text_like
        from repro.models.text import build_text_classifier

        data = make_text_like(800, rng=0, num_classes=4, vocab_size=64)
        train, test = train_test_split(data, rng=0)
        model = build_text_classifier(64, 4, embedding_dim=16, rng=0)
        trainer = Trainer(model, SgdOptimizer(2.0), train, test_data=test, batch_size=64, rng=1)
        history = trainer.train(150, eval_every=150)
        assert history.final_accuracy > 0.7

    def test_geodp_text_training(self):
        from repro.core import GeoDpSgdOptimizer, Trainer
        from repro.data import train_test_split
        from repro.data.text_like import make_text_like
        from repro.models.text import build_text_classifier

        data = make_text_like(600, rng=1, num_classes=4, vocab_size=64)
        train, test = train_test_split(data, rng=1)
        model = build_text_classifier(64, 4, embedding_dim=8, rng=0)
        opt = GeoDpSgdOptimizer(
            2.0, 0.1, 1.0, beta=0.1, rng=2, sensitivity_mode="per_angle"
        )
        trainer = Trainer(model, opt, train, test_data=test, batch_size=64, rng=3)
        history = trainer.train(150, eval_every=150)
        assert history.final_accuracy > 0.4  # well above 25% chance
