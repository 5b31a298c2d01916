"""Optimized pure-numpy backend: cache-blocked geometry, BLAS-routed
ghost kernels, blocked conv Grams.

Two ideas carry the speedups:

* **Row blocking** (geometry kernels): the spherical round trip streams
  ~10 distinct ``(m, d)`` temporaries; at benchmark sizes those fall out
  of cache between passes and every op runs at memory bandwidth.
  Processing the batch in row blocks sized to keep the whole working set
  cache-resident (~16k doubles per buffer) runs the *same* operations on
  hot data — measured ~1.6x on the GeoDP perturbation at ``(64, 5000)``,
  with bit-identical results because rows never interact.  (A trig-identity
  rewrite that avoids ``arctan2`` entirely was measured slower than this in
  pure numpy — it needs compiled code to pay off, which is exactly what the
  ``cext`` backend does.)
* **BLAS routing**: the batched Gram/contract einsums of the ghost norms
  become ``matmul`` calls, which dispatch to BLAS instead of einsum's
  generic loops.

Block boundaries are derived from the input *shape* alone, and the
accumulate kernels add each block's partial sum to the running total in
block order, so a given shape always runs the same arithmetic.

Temporaries and outputs come from the :mod:`repro.backend.workspace`
arena instead of fresh allocation, so the steady-state hot path allocates
(next to) nothing; the tier-1 lint forbids direct ``np.empty``/``np.zeros``
here.

Everything here must match :class:`~repro.backend.reference.ReferenceBackend`
to 1e-10 — enforced by ``tests/backend/test_parity.py``; the geometry
kernels match it bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.backend import workspace
from repro.backend.reference import ReferenceBackend

__all__ = ["FusedBackend"]

#: Matrices with at most this many doubles stay unblocked: they already fit
#: in cache, and per-block numpy call overhead would dominate.
_BLOCK_THRESHOLD = 1 << 17

#: Target doubles per row block (~128 KiB per temporary buffer).
_BLOCK_DOUBLES = 1 << 14

#: Target doubles per blocked conv Gram / ghost-reduction buffer (~4 MiB).
_GRAM_BLOCK_DOUBLES = 1 << 19


def _row_block(m: int, d: int) -> int:
    """Rows per block for an ``(m, d)`` geometry kernel (``m`` = no blocking)."""
    if m * d <= _BLOCK_THRESHOLD:
        return m
    return max(1, _BLOCK_DOUBLES // max(1, d))


def _batch_block(batch: int, per_row_doubles: int, target: int = _GRAM_BLOCK_DOUBLES) -> int:
    """Batch rows per block for a ghost kernel with the given per-row cost."""
    if batch * per_row_doubles <= _BLOCK_THRESHOLD:
        return batch
    return max(1, target // max(1, per_row_doubles))


class FusedBackend(ReferenceBackend):
    """Optimized numpy kernels; always available; parity-gated vs reference."""

    name = "fused"
    accelerated = True

    # ------------------------------------------------------------- geometry
    def spherical_decompose(self, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m, d = grads.shape
        block = _row_block(m, d)
        if block >= m:
            return super().spherical_decompose(grads)
        magnitudes = workspace.take(m)
        thetas = workspace.take((m, d - 1))
        for rows in _blocks(m, block):
            magnitudes[rows], thetas[rows] = super().spherical_decompose(grads[rows])
        return magnitudes, thetas

    def spherical_compose(self, magnitudes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        m, d_minus_1 = thetas.shape
        block = _row_block(m, d_minus_1 + 1)
        if block >= m:
            return super().spherical_compose(magnitudes, thetas)
        g = workspace.take((m, d_minus_1 + 1))
        for rows in _blocks(m, block):
            g[rows] = super().spherical_compose(magnitudes[rows], thetas[rows])
        return g

    def geodp_perturb(
        self, clipped: np.ndarray, mag_noise: np.ndarray, theta_noise: np.ndarray
    ) -> np.ndarray:
        m, d = clipped.shape
        block = _row_block(m, d)
        if block >= m:
            return super().geodp_perturb(clipped, mag_noise, theta_noise)
        out = workspace.take((m, d))
        for rows in _blocks(m, block):
            out[rows] = super().geodp_perturb(
                clipped[rows], mag_noise[rows], theta_noise[rows]
            )
        return out

    # ---------------------------------------------------------- ghost norms
    def linear_norm_sq(
        self, x: np.ndarray, grad_out: np.ndarray, bias: bool
    ) -> np.ndarray:
        batch = x.shape[0]
        block = _batch_block(batch, x.shape[1] + grad_out.shape[1])
        if block >= batch:
            return super().linear_norm_sq(x, grad_out, bias)
        norm_sq = workspace.take(batch)
        for rows in _blocks(batch, block):
            norm_sq[rows] = super().linear_norm_sq(x[rows], grad_out[rows], bias)
        return norm_sq

    def conv_norm_sq(
        self, cols: np.ndarray, dy: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        batch = cols.shape[0]
        out_channels = dy.shape[1]
        k_dim, length = cols.shape[1], cols.shape[2]
        if length * length <= out_channels * k_dim:
            # Blocked Gram trick: per-block (block, L, L) intermediates via
            # batched BLAS matmul, freed before the next block.
            block = max(1, _GRAM_BLOCK_DOUBLES // max(1, length * length))
            norm_sq = workspace.take(batch)
            for rows in _blocks(batch, block):
                c = cols[rows]
                e = dy[rows]
                ga = np.matmul(c.transpose(0, 2, 1), c)
                ge = np.matmul(e.transpose(0, 2, 1), e)
                ga *= ge
                norm_sq[rows] = ga.sum(axis=(1, 2))
            dw = None
        else:
            dw = np.matmul(dy, cols.transpose(0, 2, 1))  # (B, O, K) via BLAS
            norm_sq = np.einsum("bok,bok->b", dw, dw)
        if bias:
            db = dy.sum(axis=2)
            norm_sq = norm_sq + np.einsum("bo,bo->b", db, db)
        return norm_sq, dw

    def embedding_norm_sq(self, tokens: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        batch, length, dim = grad_out.shape
        block = _batch_block(batch, length * length + length * dim)
        if block >= batch:
            # Batched BLAS Gram, masked in place (no float64 copy of the mask).
            gram = np.matmul(grad_out, grad_out.transpose(0, 2, 1))
            gram *= tokens[:, :, None] == tokens[:, None, :]
            return gram.sum(axis=(1, 2))
        norm_sq = workspace.take(batch)
        for rows in _blocks(batch, block):
            gram = np.matmul(grad_out[rows], grad_out[rows].transpose(0, 2, 1))
            gram *= tokens[rows, :, None] == tokens[rows, None, :]
            norm_sq[rows] = gram.sum(axis=(1, 2))
        return norm_sq

    # ------------------------------------------------- clipped accumulation
    def linear_clip_accumulate(
        self, x: np.ndarray, grad_out: np.ndarray, factors: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        batch = x.shape[0]
        block = _batch_block(batch, x.shape[1] + grad_out.shape[1])
        if block >= batch:
            return super().linear_clip_accumulate(x, grad_out, factors, bias)
        # Bound here: zero-argument super() fails inside a generator expression.
        reference = super().linear_clip_accumulate
        return _sum_blocks(
            (
                reference(x[rows], grad_out[rows], factors[rows], bias)
                for rows in _blocks(batch, block)
            ),
            bias,
        )

    def conv_clip_accumulate(
        self, cols: np.ndarray, dy: np.ndarray, factors: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        batch = cols.shape[0]
        k_dim, length = cols.shape[1], cols.shape[2]
        out_channels = dy.shape[1]
        block = _batch_block(batch, (k_dim + out_channels) * length)
        if block >= batch:
            return _scaled_conv_sums(cols, dy, factors, bias)
        return _sum_blocks(
            (
                _scaled_conv_sums(cols[rows], dy[rows], factors[rows], bias)
                for rows in _blocks(batch, block)
            ),
            bias,
        )

    # ------------------------------------------------- sparse embedding path
    def embedding_sparse_grads(
        self,
        tokens: np.ndarray,
        grad_out: np.ndarray,
        valid: np.ndarray,
        vocab_size: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        batch, length = tokens.shape
        dim = grad_out.shape[-1]
        flat_valid = valid.ravel()
        sample_idx = np.repeat(np.arange(batch, dtype=np.int64), length)[flat_valid]
        flat_tokens = tokens.ravel()[flat_valid].astype(np.int64)
        flat_grads = grad_out.reshape(batch * length, dim)[flat_valid]
        keys = sample_idx * np.int64(vocab_size) + flat_tokens
        uniq, inverse = np.unique(keys, return_inverse=True)
        # bincount's contiguous accumulation loop beats np.add.at's fancy
        # indexing; one pass per (small) embedding dim.
        vals = workspace.take((uniq.size, dim))
        for j in range(dim):
            vals[:, j] = np.bincount(
                inverse, weights=flat_grads[:, j], minlength=uniq.size
            )
        return uniq // vocab_size, uniq % vocab_size, vals

    def sparse_row_reduce(
        self,
        sample_ids: np.ndarray,
        rows: np.ndarray,
        vals: np.ndarray,
        factors: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        scaled = vals * factors[sample_ids][:, None]
        uniq_rows, inverse = np.unique(rows, return_inverse=True)
        out = workspace.take((uniq_rows.size, vals.shape[1]))
        for j in range(vals.shape[1]):
            out[:, j] = np.bincount(
                inverse, weights=scaled[:, j], minlength=uniq_rows.size
            )
        return uniq_rows, out


def _blocks(rows: int, block: int):
    """Slices of ``block`` rows covering ``range(rows)`` in order."""
    return (slice(start, start + block) for start in range(0, rows, block))


def _scaled_conv_sums(cols, dy, factors, bias: bool):
    """``(dw, db)`` of the factor-scaled per-sample conv gradients, summed."""
    with workspace.scratch(dy.shape) as scaled:
        np.multiply(dy, factors[:, None, None], out=scaled)
        # Per-sample (O, L) @ (L, K) BLAS GEMMs on the transposed view,
        # then a batch sum: tensordot would first copy cols into a
        # (B*L, K) array, and einsum's generic 3-index loop is an
        # order of magnitude slower.
        dw = np.matmul(scaled, cols.transpose(0, 2, 1)).sum(axis=0)
        db = scaled.sum(axis=(0, 2)) if bias else None
    return dw, db


def _sum_blocks(partials, bias: bool):
    """Add each block's ``(dw, db)`` into the first, in block order.

    ``partials`` is a generator, so each block's sum is folded in as soon
    as it is computed and at most one partial is alive at a time.
    """
    dw, db = next(partials)
    for part_dw, part_db in partials:
        dw += part_dw
        if bias:
            db += part_db
    return dw, db
