"""The sparse clip stage against the dense ghost clip stage on one lot."""

import numpy as np
import pytest

from repro.core.dpsgd import DpSgdOptimizer
from repro.data import make_click_log
from repro.models.text import build_text_classifier
from repro.nn import Sequential
from repro.privacy.clipping import FlatClipping, PsacClipping
from repro.sparse import find_embedding, sparse_clipped_sums

pytestmark = pytest.mark.sparse

VOCAB = 300
DIM = 4


@pytest.mark.parametrize("clipping", [FlatClipping(0.05), PsacClipping(0.05)])
@pytest.mark.parametrize("hidden", [0, 3])
def test_sparse_sums_equal_the_dense_ghost_sum(clipping, hidden):
    """``sparse_clipped_sums`` splits the full model's ghost clipped sum:
    the dense sum is its non-embedding block, and ``(rows, row_sum)`` its
    embedding block, which is zero off the touched rows."""
    data = make_click_log(
        40,
        rng=np.random.default_rng(5),
        vocab_size=VOCAB,
        seq_length=10,
        touch_rate=0.1,
        padding_idx=0,
    )
    x, y = data.batch(np.arange(16))
    model = build_text_classifier(
        VOCAB, 2, embedding_dim=DIM, hidden=hidden, padding_idx=0,
        rng=np.random.default_rng(6),
    )
    optimizer = DpSgdOptimizer(0.5, clipping, 1.0, rng=0, grad_mode="sparse")

    ref_losses, ref_sum, ref_norms = model.loss_and_clipped_grad_sum(x, y, clipping)
    assert np.mean(ref_norms > clipping.clip_norm) > 0.5  # clipping is active
    embedding = find_embedding(model)
    head = Sequential(model.layers[1:], model.loss)
    losses, dense_sum, rows, row_sum = sparse_clipped_sums(
        optimizer, embedding, head, x, y
    )

    table = ref_sum[: VOCAB * DIM].reshape(VOCAB, DIM)
    np.testing.assert_array_equal(losses, ref_losses)
    np.testing.assert_allclose(dense_sum, ref_sum[VOCAB * DIM :], rtol=0, atol=1e-12)
    tokens = np.round(x).astype(np.int64)
    np.testing.assert_array_equal(rows, np.unique(tokens[tokens != 0]))
    np.testing.assert_allclose(row_sum, table[rows], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.delete(table, rows, axis=0), 0.0)
