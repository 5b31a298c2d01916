"""Sparse embedding-scale DP training: touched rows only, noise deferred.

A sparse model is an embedding at layer 0 plus a dense head, which clips
through the same ghost passes as any dense model.  Per-sample embedding
gradients live as compacted ``(sample, row, value)`` triples
(:class:`SparseBatchGrads`) instead of ``(B, vocab, dim)`` scatters;
untouched rows' DP cover noise is deferred through counter-based streams
(:class:`LazyRowNoise`) and materialized only when a row is next touched or
at a barrier.  :class:`SparseTrainer` drives the whole pipeline with step
cost proportional to the rows a lot actually touches.  See ``docs/sparse.md``.
"""

from repro.sparse.grads import SparseBatchGrads
from repro.sparse.noise import NOISE_MODES, LazyRowNoise, row_step_noise
from repro.sparse.pipeline import (
    find_embedding,
    get_dense_params,
    set_dense_params,
    sparse_clipped_sums,
)
from repro.sparse.release import (
    SparseRelease,
    gaussian_sparse_release,
    geodp_sparse_release,
)
from repro.sparse.trainer import SparseTrainer

__all__ = [
    "NOISE_MODES",
    "LazyRowNoise",
    "SparseBatchGrads",
    "SparseRelease",
    "SparseTrainer",
    "find_embedding",
    "gaussian_sparse_release",
    "geodp_sparse_release",
    "get_dense_params",
    "row_step_noise",
    "set_dense_params",
    "sparse_clipped_sums",
]
