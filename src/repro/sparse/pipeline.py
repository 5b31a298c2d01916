"""Sparse clip-and-sum stage: the dense head's ghost passes plus sparse
embedding rows.

A sparse model is an :class:`Embedding` at layer 0 followed by a dense
head, ``Sequential(model.layers[1:], model.loss)``.  The head runs the
same two ghost passes as any dense model
(:meth:`Sequential.per_sample_grad_norms` and
:meth:`Sequential.clipped_grad_sum`); the embedding adds its exact
per-sample norms from compacted sparse gradients (:meth:`Embedding.
backward_sparse`, *the same numbers* the dense Gram computes), and the
clip factors merge its rows through a sparse row reduction.  The
``(B, P)`` matrix and the ``(B, vocab, dim)`` scatter never exist.
"""

from __future__ import annotations

import numpy as np

from repro.nn.embedding import Embedding
from repro.telemetry.diagnostics import record_clipping
from repro.telemetry.tracing import maybe_span

__all__ = [
    "find_embedding",
    "get_dense_params",
    "set_dense_params",
    "sparse_clipped_sums",
]


def find_embedding(model) -> Embedding:
    """The model's single :class:`Embedding`, which must be layer 0 (or raise).

    The embedding reads token ids, which no layer below it can produce, and
    at least one layer must follow it to form the dense head.
    """
    layers = model.layers
    count = sum(isinstance(layer, Embedding) for layer in layers)
    if count != 1 or not isinstance(layers[0], Embedding) or len(layers) < 2:
        raise ValueError(
            "sparse training requires exactly one Embedding layer, as layer 0 "
            "of a model with at least two layers; got "
            f"{[type(layer).__name__ for layer in layers]}"
        )
    return layers[0]


# Module functions, not inline ``head.get_params()`` calls:
# ``benchmarks/step/step_probe.py`` times them by name as ``nn.params``.
def get_dense_params(head) -> np.ndarray:
    """Flat vector of the dense head's parameters (every non-embedding one)."""
    return head.get_params()


def set_dense_params(head, flat: np.ndarray) -> None:
    """Write a dense flat vector back into the head's layers."""
    head.set_params(flat)


def sparse_clipped_sums(optimizer, embedding, head, x, y):
    """Clip and sum one lot: ``(losses, dense_sum, rows, row_sum)``.

    ``dense_sum`` is the head's clipped gradient sum ``(P_dense,)`` — the
    vector the optimizers' ``step_sparse`` descends on; ``rows`` are the
    sorted unique embedding rows the lot touched and ``row_sum = sum_i c_i
    dw_i`` restricted to them.  ``optimizer.clipping.clip_factors`` sees
    the exact per-sample norms (head ghost norm² + sparse norm²), so the
    factors are the dense paths' factors.  The sparse counterpart of
    :meth:`~repro.core.pipeline.DpOptimizer.ghost_clipped_sum`: the clip
    span, clipping diagnostics from the exact norms, and ``sparse_*``
    counters.
    """
    recorder = optimizer.recorder
    with maybe_span(optimizer.tracer, "sparse_clip"):
        outputs = head.forward(embedding.forward(x, train=True), train=True)
        losses = head.loss.per_sample(outputs, y)
        norm_sq, upstream, grad_in = head.per_sample_grad_norms(
            head.loss.gradient(outputs, y)
        )
        sparse_grads = embedding.backward_sparse(grad_in)
        norm_sq += sparse_grads.norm_sq()
        norms = np.sqrt(norm_sq)
        factors = optimizer.clipping.clip_factors(norms)
        dense_sum = head.clipped_grad_sum(upstream, factors)
        rows, row_sum = sparse_grads.clipped_row_sum(factors)
    if recorder is not None:
        record_clipping(recorder, norms, optimizer.clipping.sensitivity())
        recorder.increment("sparse_clipped_sums")
        recorder.increment("sparse_samples", len(norms))
        recorder.increment("sparse_touched_rows", len(rows))
    return losses, dense_sum, rows, row_sum
