"""Pure-numpy reference backend.

Every kernel here is the *definition* of correct: the bodies are the exact
numpy formulations the library shipped with before the backend layer
existed (same operations in the same order), so selecting the reference
backend reproduces historical results bit-for-bit.  The differential
parity harness in ``tests/backend/`` measures every other backend against
these implementations.

Kernels are pure functions of ``float64`` arrays: they never touch an RNG
(noise is drawn by the caller and passed in, already scaled), never
validate (callers validate), and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReferenceBackend", "check_maxpool_backward"]


def _pool_windows(a: np.ndarray, k: int) -> np.ndarray:
    """View ``(B, C, H, W)`` as ``(B, C, H/k, k, W/k, k)`` pooling windows."""
    batch, channels, height, width = a.shape
    return a.reshape(batch, channels, height // k, k, width // k, k)


def _window_slices(windows: np.ndarray, k: int) -> list[np.ndarray]:
    """The ``k*k`` strided ``(B, C, H/k, W/k)`` slices, one per window offset."""
    return [windows[:, :, :, i, :, j] for i in range(k) for j in range(k)]


def check_maxpool_backward(grad_out: np.ndarray, mask: np.ndarray, kernel: int) -> None:
    """Raise ``ValueError`` unless ``grad_out`` and ``mask`` describe one pool.

    ``mask`` must be a bool ``(B, C, H, W)`` array with ``H`` and ``W``
    divisible by ``kernel``, and ``grad_out`` must have the pooled shape.
    Otherwise numpy would broadcast a mis-shaped upstream into a wrong input
    gradient, and a C loop would read past it.
    """
    shape = mask.shape
    if mask.dtype != np.bool_ or mask.ndim != 4 or shape[2] % kernel or shape[3] % kernel:
        raise ValueError(
            f"max-pool mask must be a bool (B, C, H, W) array with H and W "
            f"divisible by {kernel}, got {mask.dtype} of shape {shape}"
        )
    pooled = (shape[0], shape[1], shape[2] // kernel, shape[3] // kernel)
    if grad_out.shape != pooled:
        raise ValueError(
            f"max-pool upstream gradient must have the pooled shape {pooled}, "
            f"got {grad_out.shape}"
        )


class ReferenceBackend:
    """Plain-numpy kernels; always available; the parity baseline."""

    name = "reference"
    #: Whether this backend is an optimized implementation (used by ``auto``
    #: selection and by the benchmark gate that accelerated kernels must
    #: beat the reference).
    accelerated = False

    # ------------------------------------------------------------- geometry
    def spherical_decompose(self, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(m, d) -> (magnitudes (m,), angles (m, d-1))`` (paper Eq. 24-26)."""
        m, d = grads.shape
        squares = grads**2
        # tail_sq[:, z] = sum_{k > z} grads[:, k]^2  (0-indexed).  Writing the
        # reversed cumulative sum straight into a preallocated buffer keeps
        # the addition order of the reversed-cumsum formulation while
        # skipping the reverse/slice/concatenate temporaries.
        tail_sq = np.empty((m, d))
        tail_sq[:, -1] = 0.0
        np.cumsum(squares[:, :0:-1], axis=1, out=tail_sq[:, -2::-1])
        # Cumulative floating-point cancellation can leave tiny negatives.
        np.maximum(tail_sq, 0.0, out=tail_sq)
        magnitudes = np.sqrt(squares.sum(axis=1))

        theta = np.empty((m, d - 1))
        if d > 2:
            theta[:, : d - 2] = np.arctan2(
                np.sqrt(tail_sq[:, : d - 2]), grads[:, : d - 2]
            )
        theta[:, d - 2] = np.arctan2(grads[:, d - 1], grads[:, d - 2])
        return magnitudes, theta

    def spherical_compose(self, magnitudes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """``(magnitudes (m,), angles (m, d-1)) -> (m, d)`` (paper Eq. 27)."""
        m, d_minus_1 = thetas.shape
        d = d_minus_1 + 1
        sines = np.sin(thetas)
        cosines = np.cos(thetas)
        # sin_prod[:, z] = prod_{i < z} sin(theta_i), with sin_prod[:, 0] = 1.
        sin_prod = np.empty((m, d))
        sin_prod[:, 0] = 1.0
        np.cumprod(sines, axis=1, out=sin_prod[:, 1:])
        g = np.empty((m, d))
        g[:, : d - 1] = sin_prod[:, : d - 1] * cosines
        g[:, d - 1] = sin_prod[:, d - 1]
        g *= magnitudes[:, None]
        return g

    def geodp_perturb(
        self, clipped: np.ndarray, mag_noise: np.ndarray, theta_noise: np.ndarray
    ) -> np.ndarray:
        """Fuseable GeoDP hot path: decompose, add pre-scaled noise, compose.

        ``mag_noise`` ``(m,)`` and ``theta_noise`` ``(m, d-1)`` are already
        scaled by the caller (``(C/B) * sigma`` resp. the direction
        sensitivity), so the kernel is deterministic.  The reference
        implementation is literally the round trip — accelerated backends
        may fuse the three stages but must match it to 1e-10.
        """
        magnitudes, thetas = self.spherical_decompose(clipped)
        return self.spherical_compose(magnitudes + mag_noise, thetas + theta_noise)

    # ---------------------------------------------------------- ghost norms
    def linear_norm_sq(
        self, x: np.ndarray, grad_out: np.ndarray, bias: bool
    ) -> np.ndarray:
        """Per-sample ``||dW_i||^2 (+ ||db_i||^2)`` for ``y = x @ W + b``.

        The per-sample weight gradient is the outer product ``a_i e_i^T``,
        so its squared Frobenius norm factorizes: ``||a_i||^2 * ||e_i||^2``.
        """
        e_sq = np.einsum("bo,bo->b", grad_out, grad_out)
        norm_sq = np.einsum("bi,bi->b", x, x) * e_sq
        if bias:
            norm_sq = norm_sq + e_sq
        return norm_sq

    def conv_norm_sq(
        self, cols: np.ndarray, dy: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-sample conv gradient norms from im2col patches.

        ``cols`` is ``(B, K, L)`` with ``K = in_c * k * k``; ``dy`` is
        ``(B, O, L)``.  Uses the ghost-norm Gram trick
        ``||E_i A_i^T||_F^2 = <A_i^T A_i, E_i^T E_i>_F`` when the ``(L, L)``
        Grams are smaller than the ``(B, O, K)`` per-sample gradients, and
        forms those gradients otherwise.  Returns ``(norm_sq (B,), dw)``:
        ``dw`` is the ``(B, O, K)`` per-sample weight gradient when it was
        formed, ``None`` on the Gram side, so this is the one place the
        crossover is decided.
        """
        out_channels = dy.shape[1]
        k_dim, length = cols.shape[1], cols.shape[2]
        if length * length <= out_channels * k_dim:
            ga = np.einsum("bkl,bkm->blm", cols, cols)
            ge = np.einsum("bol,bom->blm", dy, dy)
            norm_sq = np.einsum("blm,blm->b", ga, ge)
            dw = None
        else:
            dw = np.einsum("bol,bkl->bok", dy, cols)
            norm_sq = np.einsum("bok,bok->b", dw, dw)
        if bias:
            db = dy.sum(axis=2)
            norm_sq = norm_sq + np.einsum("bo,bo->b", db, db)
        return norm_sq, dw

    def embedding_norm_sq(self, tokens: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Per-sample embedding gradient norms via the token-masked Gram.

        ``||dw_i||^2 = sum_{l,m} [t_l == t_m] <g_l, g_m>`` — the ``(L, L)``
        positional Gram masked by token equality; repeated tokens are what
        makes this differ from a plain sum of ``||g_l||^2``.
        """
        gram = np.einsum("bld,bmd->blm", grad_out, grad_out)
        same = tokens[:, :, None] == tokens[:, None, :]
        return np.einsum("blm,blm->b", gram, same.astype(np.float64))

    # ------------------------------------------------------- conv adjoint
    def col2im(
        self,
        cols: np.ndarray,
        x_shape: tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Scatter-add ``(B, C*k*k, L)`` columns into a ``(B, C, H, W)`` image.

        The conv input gradient: :func:`repro.nn.functional.col2im`, whose
        ``k*k`` strided adds run in kernel-offset ``(i, j)`` order.  Other
        backends must match it bit for bit, not just to 1e-10.
        """
        # Imported here: repro.nn imports this package at module load.
        from repro.nn.functional import col2im

        return col2im(cols, x_shape, kernel, stride, padding)

    # ------------------------------------------------------------- pooling
    def maxpool2d(self, x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
        """Non-overlapping ``kernel x kernel`` max pool: ``(out, mask)``.

        ``x`` is ``(B, C, H, W)`` with ``H`` and ``W`` divisible by
        ``kernel``; ``out`` is ``(B, C, H/k, W/k)``.  ``mask`` is a bool
        array of ``x``'s shape, true wherever ``x`` equals its window's max
        (every position of a tie): the one mask format every backend reads
        and writes.  The max is a running ``np.maximum`` over the ``k*k``
        strided slices of the window view; reducing over its non-adjacent
        window axes (3, 5) gives the same bits several times slower.
        """
        windows = _pool_windows(x, kernel)
        first, *rest = _window_slices(windows, kernel)
        out = first.copy()
        for window_slice in rest:
            np.maximum(out, window_slice, out=out)
        mask = windows == out[:, :, :, None, :, None]
        return out, mask.reshape(x.shape)

    def maxpool2d_backward(
        self, grad_out: np.ndarray, mask: np.ndarray, kernel: int
    ) -> np.ndarray:
        """Input gradient of :meth:`maxpool2d` from its mask, ``(B, C, H, W)``.

        Ties share the upstream gradient equally: a valid subgradient that
        keeps the adjoint linear.  The mask is 0/1, so dividing at pooled
        resolution before spreading gives the same bits as dividing the
        spread gradient.
        """
        windows = _pool_windows(mask, kernel)
        counts = sum(_window_slices(windows, kernel))
        share = grad_out / np.maximum(counts, 1)
        spread = windows * share[:, :, :, None, :, None]
        return spread.reshape(mask.shape)

    # ------------------------------------------------- clipped accumulation
    def linear_clip_accumulate(
        self, x: np.ndarray, grad_out: np.ndarray, factors: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``sum_i c_i a_i e_i^T`` (and ``sum_i c_i e_i``) without ``(B, P)``."""
        scaled = grad_out * factors[:, None]
        dw = x.T @ scaled
        db = scaled.sum(axis=0) if bias else None
        return dw, db

    def conv_clip_accumulate(
        self, cols: np.ndarray, dy: np.ndarray, factors: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Clip-scaled conv weight-gradient sum ``(O, K)`` from patches."""
        scaled = dy * factors[:, None, None]
        dw = np.einsum("bol,bkl->ok", scaled, cols)
        db = scaled.sum(axis=(0, 2)) if bias else None
        return dw, db

    def embedding_clip_accumulate(
        self,
        tokens: np.ndarray,
        grad_out: np.ndarray,
        factors: np.ndarray,
        vocab_size: int,
    ) -> np.ndarray:
        """Clip-scaled scatter-add of positional gradients onto token rows."""
        dim = grad_out.shape[-1]
        scaled = grad_out * factors[:, None, None]
        dw = np.zeros((vocab_size, dim))
        np.add.at(dw, tokens.ravel(), scaled.reshape(-1, dim))
        return dw

    # ------------------------------------------------- sparse embedding path
    def embedding_sparse_grads(
        self,
        tokens: np.ndarray,
        grad_out: np.ndarray,
        valid: np.ndarray,
        vocab_size: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compact per-sample embedding gradients to touched rows.

        Sums the ``(B, L, D)`` positional gradients over repeated tokens
        *within each sample*, returning one ``(sample_id, row, value)``
        triple per touched ``(sample, row)`` pair, sorted by ``(sample,
        row)``.  Positions with ``valid == False`` (padding) are dropped.
        This is lossless: scattering the triples back reproduces the dense
        per-sample gradient exactly, so norms over ``vals`` are exact.
        """
        batch, length = tokens.shape
        dim = grad_out.shape[-1]
        flat_valid = valid.ravel()
        sample_idx = np.repeat(np.arange(batch, dtype=np.int64), length)[flat_valid]
        flat_tokens = tokens.ravel()[flat_valid].astype(np.int64)
        flat_grads = grad_out.reshape(batch * length, dim)[flat_valid]
        # One key per (sample, row) pair; unique both dedups and sorts.
        keys = sample_idx * np.int64(vocab_size) + flat_tokens
        uniq, inverse = np.unique(keys, return_inverse=True)
        vals = np.zeros((uniq.size, dim))
        np.add.at(vals, inverse, flat_grads)
        return uniq // vocab_size, uniq % vocab_size, vals

    def sparse_row_reduce(
        self,
        sample_ids: np.ndarray,
        rows: np.ndarray,
        vals: np.ndarray,
        factors: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clip-scale per-sample sparse gradients and merge across the lot.

        ``sum_i c_i dw_i`` restricted to touched rows: each nonzero is
        scaled by its sample's clip factor, then nonzeros sharing a row are
        summed.  Returns ``(unique_rows, summed_vals)`` with rows sorted
        ascending — the sparse counterpart of ``embedding_clip_accumulate``.
        """
        scaled = vals * factors[sample_ids][:, None]
        uniq_rows, inverse = np.unique(rows, return_inverse=True)
        out = np.zeros((uniq_rows.size, vals.shape[1]))
        np.add.at(out, inverse, scaled)
        return uniq_rows, out
