"""Sparse clip-and-sum pass: ghost norms for dense layers, sparse rows for
the embedding.

One backward pass accumulates exact per-sample gradient norms — dense
layers through their ``backward_norm_sq`` ghost hooks, the embedding from
its compacted sparse per-sample gradients (:meth:`Embedding.
backward_sparse`), which are *the same numbers* the dense Gram computes —
then clip factors scale-and-merge both halves: dense layers through
``accumulate_clipped``, the embedding through a sparse row reduction.
The ``(B, P)`` matrix and the ``(B, vocab, dim)`` scatter never exist.
"""

from __future__ import annotations

import numpy as np

from repro.nn.embedding import Embedding
from repro.telemetry.diagnostics import record_clipping
from repro.telemetry.tracing import maybe_span

__all__ = [
    "find_embedding",
    "dense_param_slices",
    "get_dense_params",
    "set_dense_params",
    "sparse_loss_and_clipped_grads",
    "sparse_clipped_sums",
]


def find_embedding(model) -> int:
    """Index of the model's single :class:`Embedding` layer (or raise)."""
    indices = [
        i for i, layer in enumerate(model.layers) if isinstance(layer, Embedding)
    ]
    if len(indices) != 1:
        raise ValueError(
            f"sparse training requires exactly one Embedding layer, "
            f"found {len(indices)}"
        )
    return indices[0]


def dense_param_slices(model, emb_index: int) -> list[tuple[int, str, tuple, slice]]:
    """``(layer, name, shape, slice)`` of every non-embedding parameter.

    Slices address the *dense* flat vector — the model's parameter vector
    with the embedding table removed.  This is the vector the optimizers'
    ``step_sparse`` descends on; the table itself is updated in place, row
    by row, so step cost never scales with ``vocab``.
    """
    out = []
    offset = 0
    for i, name, shape, size in model._index:
        if i == emb_index:
            continue
        out.append((i, name, shape, slice(offset, offset + size)))
        offset += size
    return out


def get_dense_params(model, emb_index: int) -> np.ndarray:
    """Flat vector of all non-embedding parameters."""
    chunks = [
        model.layers[i].params()[name].ravel()
        for i, name, _, _ in dense_param_slices(model, emb_index)
    ]
    return np.concatenate(chunks) if chunks else np.zeros(0)


def set_dense_params(model, emb_index: int, flat: np.ndarray) -> None:
    """Write a dense flat vector back into the non-embedding layers."""
    for i, name, shape, sl in dense_param_slices(model, emb_index):
        model.layers[i].set_param(name, flat[sl].reshape(shape))


def sparse_loss_and_clipped_grads(model, emb_index: int, x, y, clipping):
    """Sparse ghost pass over one lot.

    Returns ``(losses (B,), dense_sum (P_dense,), rows (R,), row_sum
    (R, dim), norms (B,))`` where ``rows`` are the sorted unique embedding
    rows the lot touched and ``row_sum = sum_i c_i dw_i`` restricted to
    them.  ``clipping.clip_factors`` sees the exact per-sample norms
    (dense ghost norm² + sparse norm²), so the factors are the dense
    paths' factors.
    """
    embedding = model.layers[emb_index]
    dense_size = sum(size for i, _, _, size in model._index if i != emb_index)
    if len(x) == 0:
        # Empty Poisson lot: zero sums, no touched rows.
        return (
            np.zeros(0),
            np.zeros(dense_size),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, embedding.dim)),
            np.zeros(0),
        )
    outputs = model.forward(x, train=True)
    losses = model.loss.per_sample(outputs, y)
    grad_out = model.loss.gradient(outputs, y)

    # Pass #1: norms — ghost hooks for dense layers, sparse compaction for
    # the embedding (cached for pass #2; its norm contribution is exact).
    norm_sq = np.zeros(grad_out.shape[0])
    upstream: list[np.ndarray | None] = [None] * len(model.layers)
    sparse_grads = None
    grad = grad_out
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        if i == emb_index:
            sparse_grads = layer.backward_sparse(grad)
            norm_sq += sparse_grads.norm_sq()
            grad = np.zeros(layer._tokens.shape)
            continue
        if layer.params():
            upstream[i] = grad
        grad, layer_norm_sq = layer.backward_norm_sq(grad)
        norm_sq += layer_norm_sq
    norms = np.sqrt(norm_sq)

    factors = clipping.clip_factors(norms)

    # Pass #2: clip-scaled accumulation — dense layers from their cached
    # upstream gradients, the embedding from its sparse triples.
    chunks = []
    per_layer: dict[int, dict] = {}
    for i, name, _, size in model._index:
        if i == emb_index:
            continue
        if i not in per_layer:
            per_layer[i] = model.layers[i].accumulate_clipped(upstream[i], factors)
        chunks.append(per_layer[i][name].reshape(size))
    dense_sum = np.concatenate(chunks) if chunks else np.zeros(0)
    rows, row_sum = sparse_grads.clipped_row_sum(factors)
    return losses, dense_sum, rows, row_sum, norms


def sparse_clipped_sums(optimizer, model, emb_index: int, x, y):
    """:func:`sparse_loss_and_clipped_grads` with the optimizer's telemetry.

    The sparse counterpart of
    :meth:`~repro.core.pipeline.DpOptimizer.ghost_clipped_sum`: the clip
    span, clipping diagnostics from the exact norms, and ``sparse_*``
    counters.
    """
    recorder = optimizer.recorder
    with maybe_span(optimizer.tracer, "sparse_clip"):
        losses, dense_sum, rows, row_sum, norms = sparse_loss_and_clipped_grads(
            model, emb_index, x, y, optimizer.clipping
        )
    if recorder is not None:
        record_clipping(recorder, norms, optimizer.clipping.sensitivity())
        recorder.increment("sparse_clipped_sums")
        recorder.increment("sparse_samples", len(norms))
        recorder.increment("sparse_touched_rows", len(rows))
    return losses, dense_sum, rows, row_sum
