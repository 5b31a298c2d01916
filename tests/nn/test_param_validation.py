"""``set_param`` must validate shapes strictly, never reshape silently.

The old behaviour — ``value.reshape(expected)`` — silently accepted any
same-size array, so a transposed weight matrix or a flattened kernel
loaded without complaint and corrupted the model.  ``coerce_param`` now
requires the exact shape.
"""

import numpy as np
import pytest

from repro.nn.embedding import Embedding
from repro.nn.layers import Conv2d, Linear, coerce_param


class TestCoerceParam:
    def test_exact_shape_accepted(self):
        out = coerce_param("X", "w", np.ones((2, 3), dtype=np.float32), (2, 3))
        assert out.shape == (2, 3) and out.dtype == np.float64

    def test_same_size_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"X\.w expects shape \(2, 3\)"):
            coerce_param("X", "w", np.ones((3, 2)), (2, 3))

    def test_flattened_rejected(self):
        with pytest.raises(ValueError, match="expects shape"):
            coerce_param("X", "w", np.ones(6), (2, 3))


@pytest.mark.parametrize(
    "layer,name",
    [
        (Linear(3, 4, rng=np.random.default_rng(0)), "weight"),
        (Linear(3, 4, rng=np.random.default_rng(0)), "bias"),
        (Conv2d(2, 3, 3, rng=np.random.default_rng(0)), "weight"),
        (Conv2d(2, 3, 3, rng=np.random.default_rng(0)), "bias"),
        (Embedding(5, 3, rng=np.random.default_rng(0)), "weight"),
    ],
    ids=[
        "Linear-weight", "Linear-bias", "Conv2d-weight", "Conv2d-bias", "Embedding-weight"
    ],
)
class TestStrictSetParam:
    def test_exact_shape_round_trips(self, layer, name):
        value = np.arange(layer.params()[name].size, dtype=np.float64).reshape(
            layer.params()[name].shape
        )
        layer.set_param(name, value)
        np.testing.assert_array_equal(layer.params()[name], value)

    def test_transposed_or_flattened_rejected(self, layer, name):
        expected = layer.params()[name].shape
        with pytest.raises(ValueError, match="expects shape"):
            layer.set_param(name, np.zeros(int(np.prod(expected))).reshape(1, -1))

    def test_wrong_size_rejected(self, layer, name):
        with pytest.raises(ValueError, match="expects shape"):
            layer.set_param(name, np.zeros(int(np.prod(layer.params()[name].shape)) + 1))

    def test_unknown_name_rejected(self, layer, name):
        with pytest.raises(KeyError):
            layer.set_param("nonsense", np.zeros(1))
