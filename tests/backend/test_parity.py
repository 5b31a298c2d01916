"""Differential parity harness: every backend kernel vs the reference.

Enumerates (kernel x backend x dtype x shape x seed) and asserts the
accelerated result matches the pure-numpy reference to 1e-10 — the
contract that makes backends interchangeable.  Inputs are generated in
the grid dtype and upcast to float64 before the kernel call, mirroring
the public API (``check_matrix`` always upcasts), so float32-sourced
data exercises denormal/rounding patterns without changing the contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend, use_backend
from repro.backend.reference import ReferenceBackend
from repro.nn.functional import conv_output_shape

from tests.backend.conftest import parity_backends, require_backend

pytestmark = pytest.mark.backend

REFERENCE = ReferenceBackend()

#: rtol/atol of the cross-backend contract (documented in docs/backends.md).
PARITY = dict(rtol=1e-10, atol=1e-10)

#: The last shape crosses the fused backend's blocking threshold (2^17
#: doubles): it runs as 12 row blocks of 4.
GEOMETRY_SHAPES = [(1, 2), (3, 2), (4, 3), (17, 33), (9, 128), (64, 257), (48, 4096)]
SEEDS = [0, 1]
DTYPES = [np.float64, np.float32]


def _grads(shape, seed, dtype):
    rng = np.random.default_rng(seed)
    g = rng.normal(0.0, 1.0, size=shape).astype(dtype)
    return np.asarray(g, dtype=np.float64)


@pytest.fixture(params=parity_backends() or ["fused"])
def backend_name(request):
    return request.param


# ---------------------------------------------------------------- geometry
@pytest.mark.parametrize("shape", GEOMETRY_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_spherical_decompose_parity(backend_name, shape, seed, dtype):
    grads = _grads(shape, seed, dtype)
    ref_mag, ref_theta = REFERENCE.spherical_decompose(grads)
    with use_backend(backend_name):
        mag, theta = get_backend().spherical_decompose(grads)
    np.testing.assert_allclose(mag, ref_mag, **PARITY)
    np.testing.assert_allclose(theta, ref_theta, **PARITY)


@pytest.mark.parametrize("shape", GEOMETRY_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_spherical_compose_parity(backend_name, shape, seed, dtype):
    m, d = shape
    rng = np.random.default_rng(seed + 100)
    mags = np.abs(rng.normal(1.0, 0.5, size=m).astype(dtype)).astype(np.float64)
    thetas = rng.uniform(-np.pi, np.pi, size=(m, d - 1)).astype(dtype)
    thetas = np.asarray(thetas, dtype=np.float64)
    ref = REFERENCE.spherical_compose(mags, thetas)
    with use_backend(backend_name):
        out = get_backend().spherical_compose(mags, thetas)
    np.testing.assert_allclose(out, ref, **PARITY)


@pytest.mark.parametrize("shape", GEOMETRY_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_geodp_perturb_parity(backend_name, shape, seed, dtype):
    m, d = shape
    grads = _grads(shape, seed, dtype)
    rng = np.random.default_rng(seed + 200)
    mag_noise = 0.05 * rng.normal(size=m)
    theta_noise = 0.01 * rng.normal(size=(m, d - 1))
    ref = REFERENCE.geodp_perturb(grads, mag_noise, theta_noise)
    with use_backend(backend_name):
        out = get_backend().geodp_perturb(grads, mag_noise, theta_noise)
    np.testing.assert_allclose(out, ref, **PARITY)


EDGE_ROWS = [
    np.zeros(5),                                   # zero vector: all angles 0
    np.array([1.0, 0.0, 0.0, 0.0, 0.0]),           # on the pole
    np.array([-1.0, 0.0, 0.0, 0.0, 0.0]),          # antipodal pole
    np.array([1e-300, 0.0, 1e-300, 0.0, 0.0]),     # denormal-adjacent tail
    np.array([0.0, 0.0, 0.0, 0.0, -2.5]),          # only the last coordinate
    np.array([1e8, -1e-8, 1e8, -1e-8, 1e8]),       # huge dynamic range
]


def test_geodp_perturb_edge_rows_parity(backend_name):
    grads = np.stack(EDGE_ROWS)
    m, d = grads.shape
    rng = np.random.default_rng(7)
    mag_noise = 0.1 * rng.normal(size=m)
    theta_noise = 0.02 * rng.normal(size=(m, d - 1))
    ref = REFERENCE.geodp_perturb(grads, mag_noise, theta_noise)
    with use_backend(backend_name):
        out = get_backend().geodp_perturb(grads, mag_noise, theta_noise)
    np.testing.assert_allclose(out, ref, **PARITY)


def test_decompose_edge_rows_parity(backend_name):
    grads = np.stack(EDGE_ROWS)
    ref_mag, ref_theta = REFERENCE.spherical_decompose(grads)
    with use_backend(backend_name):
        mag, theta = get_backend().spherical_decompose(grads)
    np.testing.assert_allclose(mag, ref_mag, **PARITY)
    np.testing.assert_allclose(theta, ref_theta, **PARITY)


# ------------------------------------------------------------ ghost kernels
# (B, in, out); the last shape is blocked into 2 batch spans.
LINEAR_SHAPES = [(1, 3, 2), (8, 16, 10), (64, 120, 33), (64, 8192, 256)]


@pytest.mark.parametrize("shape", LINEAR_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bias", [True, False])
def test_linear_kernels_parity(backend_name, shape, seed, dtype, bias):
    b, n_in, n_out = shape
    rng = np.random.default_rng(seed + 300)
    x = np.asarray(rng.normal(size=(b, n_in)).astype(dtype), dtype=np.float64)
    gout = np.asarray(rng.normal(size=(b, n_out)).astype(dtype), dtype=np.float64)
    factors = rng.uniform(0.1, 1.0, size=b)
    ref_norm = REFERENCE.linear_norm_sq(x, gout, bias)
    ref_dw, ref_db = REFERENCE.linear_clip_accumulate(x, gout, factors, bias)
    with use_backend(backend_name):
        norm = get_backend().linear_norm_sq(x, gout, bias)
        dw, db = get_backend().linear_clip_accumulate(x, gout, factors, bias)
    np.testing.assert_allclose(norm, ref_norm, **PARITY)
    np.testing.assert_allclose(dw, ref_dw, **PARITY)
    if bias:
        np.testing.assert_allclose(db, ref_db, **PARITY)
    else:
        assert db is None and ref_db is None


# Both Gram-crossover branches: L^2 <= O*K (small maps) and L^2 > O*K.  The
# last two shapes are above the fused backend's block threshold, so their
# clipped accumulates sum three and two batch spans; (16, 72, 8, 1024) is a
# ResNet 32x32 convolution.
CONV_SHAPES = [  # (B, K, O, L)
    (2, 12, 4, 9),
    (6, 27, 8, 49),
    (4, 18, 3, 100),
    (16, 72, 8, 1024),
    (32, 64, 32, 256),
]


@pytest.mark.parametrize("shape", CONV_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bias", [True, False])
def test_conv_kernels_parity(backend_name, shape, seed, dtype, bias):
    b, k_dim, out_c, length = shape
    rng = np.random.default_rng(seed + 400)
    cols = np.asarray(rng.normal(size=(b, k_dim, length)).astype(dtype), dtype=np.float64)
    dy = np.asarray(rng.normal(size=(b, out_c, length)).astype(dtype), dtype=np.float64)
    factors = rng.uniform(0.1, 1.0, size=b)
    ref_norm, ref_per_sample = REFERENCE.conv_norm_sq(cols, dy, bias)
    ref_dw, ref_db = REFERENCE.conv_clip_accumulate(cols, dy, factors, bias)
    with use_backend(backend_name):
        norm, per_sample = get_backend().conv_norm_sq(cols, dy, bias)
        dw, db = get_backend().conv_clip_accumulate(cols, dy, factors, bias)
    np.testing.assert_allclose(norm, ref_norm, **PARITY)
    # The per-sample product exists exactly on the reference's side of the
    # crossover, and matches it there.
    if length * length <= out_c * k_dim:
        assert per_sample is None and ref_per_sample is None
    else:
        np.testing.assert_allclose(per_sample, ref_per_sample, **PARITY)
    np.testing.assert_allclose(dw, ref_dw, **PARITY)
    if bias:
        np.testing.assert_allclose(db, ref_db, **PARITY)


# Every convolution the step workloads run, as (x_shape, kernel, stride,
# padding) at B = 2: the Table II CNN (1->8 at 28^2, 8->16 at 14^2) and the
# Table III ResNet (3->8 and 8->8 at 32^2, the two 3x3 stride-2 convs,
# 16->16 at 16^2, 32->32 at 8^2, the two 1x1 stride-2 projections).  Then
# edge geometries: H != W, odd H at stride 2, kernel 5 with padding 2,
# kernel 1 at stride 2 (pixels no window covers) and B = C = 1.
COL2IM_GEOMETRIES = [
    ((2, 1, 28, 28), 3, 1, 1),
    ((2, 8, 14, 14), 3, 1, 1),
    ((2, 3, 32, 32), 3, 1, 1),
    ((2, 8, 32, 32), 3, 1, 1),
    ((2, 8, 32, 32), 3, 2, 1),
    ((2, 16, 16, 16), 3, 2, 1),
    ((2, 16, 16, 16), 3, 1, 1),
    ((2, 32, 8, 8), 3, 1, 1),
    ((2, 8, 32, 32), 1, 2, 0),
    ((2, 16, 16, 16), 1, 2, 0),
    ((3, 2, 7, 10), 3, 1, 1),
    ((3, 2, 9, 8), 3, 2, 1),
    ((2, 3, 11, 11), 5, 1, 2),
    ((2, 3, 7, 7), 1, 2, 0),
    ((1, 1, 5, 5), 3, 1, 1),
]


@pytest.mark.parametrize("geometry", COL2IM_GEOMETRIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_col2im_parity(backend_name, geometry, seed, dtype):
    """Bit-identical, not 1e-10: every pixel's adds run in the same order."""
    x_shape, kernel, stride, padding = geometry
    batch, channels, height, width = x_shape
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)
    rng = np.random.default_rng(seed + 1000)
    cols = rng.normal(size=(batch, channels * kernel * kernel, out_h * out_w))
    cols = np.asarray(cols.astype(dtype), dtype=np.float64)
    ref = REFERENCE.col2im(cols, x_shape, kernel, stride, padding)
    with use_backend(backend_name):
        out = get_backend().col2im(cols, x_shape, kernel, stride, padding)
    assert out.shape == x_shape
    assert np.array_equal(out, ref)
    # Pixels that no window covers read exactly zero.
    covered = REFERENCE.col2im(np.ones_like(cols), x_shape, kernel, stride, padding)
    assert np.all(out[covered == 0] == 0.0)
    if kernel < stride:
        assert not covered.all()


@pytest.mark.parametrize("name", ["reference", *parity_backends()])
def test_col2im_rejects_columns_of_another_geometry(name):
    """Columns one output position short never reach the scatter loop."""
    cols = np.ones((2, 3 * 9, 8 * 8 - 1))
    with use_backend(name):
        with pytest.raises(ValueError):
            get_backend().col2im(cols, (2, 3, 8, 8), 3, 1, 1)


# (x_shape, kernel): the Table II CNN's two pools at B = 128, B = C = 1, H !=
# W (a wrong row stride shows there), and kernels 1 and 3, which every
# backend runs in numpy.
MAXPOOL_GEOMETRIES = [
    ((128, 8, 28, 28), 2),
    ((128, 16, 14, 14), 2),
    ((1, 1, 2, 2), 2),
    ((3, 2, 6, 10), 2),
    ((3, 2, 6, 10), 1),
    ((3, 2, 6, 9), 3),
]


def _pool_input(kind, shape, kernel, rng):
    if kind == "relu_normal":  # all-zero windows tie 4 ways
        return np.maximum(rng.normal(size=shape), 0.0)
    if kind == "small_int":  # 2-, 3- and 4-way ties; a 1/3 share is inexact
        return rng.integers(0, 3, size=shape).astype(np.float64)
    if kind == "nan":  # one NaN, last in the first window
        x = rng.normal(size=shape)
        x[0, 0, kernel - 1, kernel - 1] = np.nan
        return x
    # signed_zero: +0.0 and -0.0 tie, as do the ones
    return rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)


@pytest.mark.parametrize("geometry", MAXPOOL_GEOMETRIES)
@pytest.mark.parametrize("kind", ["relu_normal", "small_int", "nan", "signed_zero"])
def test_maxpool2d_parity(backend_name, geometry, kind):
    """Equal to the reference, not within 1e-10: out, mask and input gradient.

    ``np.array_equal`` compares values, so a max of tied zeros may differ in
    sign: numpy's SIMD ``maximum`` and C's ``maxsd`` may pick different
    operands.  Without -0.0 in the input the bits are equal too.
    """
    x_shape, kernel = geometry
    rng = np.random.default_rng(1100 + kernel)
    x = _pool_input(kind, x_shape, kernel, rng)
    ref_out, ref_mask = REFERENCE.maxpool2d(x, kernel)
    grad_out = rng.normal(size=ref_out.shape)
    ref_grad = REFERENCE.maxpool2d_backward(grad_out, ref_mask, kernel)
    with use_backend(backend_name):
        out, mask = get_backend().maxpool2d(x, kernel)
        grad = get_backend().maxpool2d_backward(grad_out, mask, kernel)
    assert mask.dtype == np.bool_ and mask.shape == x_shape
    assert np.array_equal(out, ref_out, equal_nan=kind == "nan")
    assert np.array_equal(mask, ref_mask)
    # The gradient depends on the mask only, so its bits match, zero signs
    # included; so do the output's, except for tied zeros and NaN payloads.
    assert np.array_equal(grad.view(np.int64), ref_grad.view(np.int64))
    if kind in ("relu_normal", "small_int"):
        assert np.array_equal(out.view(np.int64), ref_out.view(np.int64))
    if kind == "nan":
        # The NaN window's max is NaN, no position equals it, and its input
        # gradient is 0.
        assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out).sum() == 1
        assert not mask[0, 0, :kernel, :kernel].any()
        assert np.all(grad[0, 0, :kernel, :kernel] == 0.0)


@pytest.mark.parametrize("kernel", [2, 3])
def test_maxpool2d_mask_crosses_backends(backend_name, kernel):
    """One mask format: a forward on one backend, its backward on another."""
    rng = np.random.default_rng(1200)
    x = rng.integers(0, 3, size=(4, 3, 6 * kernel, 4 * kernel)).astype(np.float64)
    ref_out, ref_mask = REFERENCE.maxpool2d(x, kernel)
    grad_out = rng.normal(size=ref_out.shape)
    expected = REFERENCE.maxpool2d_backward(grad_out, ref_mask, kernel)
    with use_backend(backend_name):
        _, mask = get_backend().maxpool2d(x, kernel)
        # The reference's forward, then this backend's backward.
        grad = get_backend().maxpool2d_backward(grad_out, ref_mask, kernel)
    assert np.array_equal(grad, expected)
    # This backend's forward, then the reference's backward.
    grad = REFERENCE.maxpool2d_backward(grad_out, mask, kernel)
    assert np.array_equal(grad, expected)


def test_cext_maxpool2d_rejects_shapes_the_c_loop_cannot_read():
    """The C wrappers check again: nothing reads past the buffers it is handed."""
    with use_backend(require_backend("cext")):
        kernels = get_backend()
        with pytest.raises(ValueError):
            kernels.maxpool2d(np.ones((2, 3, 5, 4)), 2)
        with pytest.raises(ValueError):
            kernels.maxpool2d(np.ones((3, 5, 4)), 2)
        mask = np.ones((2, 3, 4, 4), dtype=bool)
        for grad_out, bad_mask in [
            (np.ones((2, 3, 1, 1)), mask),
            (np.ones((2, 3, 2, 2)), mask[:, :, :, :3]),
            (np.ones((2, 3, 2, 2)), mask.astype(np.float64)),
        ]:
            with pytest.raises(ValueError):
                kernels.maxpool2d_backward(grad_out, bad_mask, 2)


EMBED_SHAPES = [(2, 3, 5, 4), (8, 12, 30, 16)]  # (B, L, vocab, dim)


@pytest.mark.parametrize("shape", EMBED_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_kernels_parity(backend_name, shape, seed):
    b, length, vocab, dim = shape
    rng = np.random.default_rng(seed + 500)
    # Small vocab on purpose: repeated tokens exercise the equality mask.
    tokens = rng.integers(0, vocab, size=(b, length))
    gout = rng.normal(size=(b, length, dim))
    factors = rng.uniform(0.1, 1.0, size=b)
    ref_norm = REFERENCE.embedding_norm_sq(tokens, gout)
    ref_dw = REFERENCE.embedding_clip_accumulate(tokens, gout, factors, vocab)
    with use_backend(backend_name):
        norm = get_backend().embedding_norm_sq(tokens, gout)
        dw = get_backend().embedding_clip_accumulate(tokens, gout, factors, vocab)
    np.testing.assert_allclose(norm, ref_norm, **PARITY)
    np.testing.assert_allclose(dw, ref_dw, **PARITY)


def test_reference_backend_is_default(monkeypatch):
    """Without env overrides the library must keep historical behavior."""
    import repro.backend as backend_mod

    monkeypatch.delenv(backend_mod.BACKEND_ENV, raising=False)
    backend_mod._active = None  # force re-init; conftest fixture restores
    assert get_backend().name == "reference"
    assert get_backend().accelerated is False


# ----------------------------------------------------------- sparse kernels
def _token_patterns(vocab, b, length, seed):
    """Adversarial token layouts for the sparse/ghost embedding kernels."""
    rng = np.random.default_rng(seed + 900)
    zipf = np.minimum(rng.zipf(1.3, size=(b, length)) - 1, vocab - 1)
    return {
        "uniform": rng.integers(0, vocab, size=(b, length)),
        # Every position the same token: maximal within-sample compaction.
        "all_repeated": np.full((b, length), vocab // 2, dtype=np.int64),
        # Each sample hammers its own single token.
        "single_token_lots": np.tile(
            rng.integers(0, vocab, size=(b, 1)), (1, length)
        ),
        # Zipfian head collisions across samples.
        "zipf": zipf,
    }


@pytest.mark.parametrize("shape", EMBED_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_sparse_grads_parity(backend_name, shape, seed):
    b, length, vocab, dim = shape
    rng = np.random.default_rng(seed + 700)
    gout = rng.normal(size=(b, length, dim))
    for name, tokens in _token_patterns(vocab, b, length, seed).items():
        valid = rng.random((b, length)) < 0.8
        ref = REFERENCE.embedding_sparse_grads(tokens, gout, valid, vocab)
        with use_backend(backend_name):
            out = get_backend().embedding_sparse_grads(tokens, gout, valid, vocab)
        np.testing.assert_array_equal(out[0], ref[0], err_msg=name)
        np.testing.assert_array_equal(out[1], ref[1], err_msg=name)
        np.testing.assert_allclose(out[2], ref[2], err_msg=name, **PARITY)


@pytest.mark.parametrize("shape", EMBED_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_row_reduce_parity(backend_name, shape, seed):
    b, length, vocab, dim = shape
    rng = np.random.default_rng(seed + 800)
    gout = rng.normal(size=(b, length, dim))
    factors = rng.uniform(0.1, 1.0, size=b)
    for name, tokens in _token_patterns(vocab, b, length, seed).items():
        valid = np.ones((b, length), dtype=bool)
        sids, rows, vals = REFERENCE.embedding_sparse_grads(tokens, gout, valid, vocab)
        ref = REFERENCE.sparse_row_reduce(sids, rows, vals, factors)
        with use_backend(backend_name):
            out = get_backend().sparse_row_reduce(sids, rows, vals, factors)
        np.testing.assert_array_equal(out[0], ref[0], err_msg=name)
        np.testing.assert_allclose(out[1], ref[1], err_msg=name, **PARITY)


@pytest.mark.parametrize("shape", EMBED_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_norms_match_ghost_and_dense(backend_name, shape, seed):
    """Sparse per-sample norms == ghost norms == dense per-sample norms.

    The sparse compaction must not change what the clipping strategy
    observes, even under adversarial token collisions: within one sample,
    repeated tokens merge into one row *before* the norm (the dense
    per-sample gradient sums them too).
    """
    from repro.sparse.grads import SparseBatchGrads

    b, length, vocab, dim = shape
    rng = np.random.default_rng(seed + 600)
    gout = rng.normal(size=(b, length, dim))
    for name, tokens in _token_patterns(vocab, b, length, seed).items():
        # Dense per-sample reference: scatter-add into (B, vocab, dim).
        dense = np.zeros((b, vocab, dim))
        for i in range(b):
            np.add.at(dense[i], tokens[i], gout[i])
        dense_norm_sq = np.einsum("bvd,bvd->b", dense, dense)
        ghost_norm_sq = REFERENCE.embedding_norm_sq(tokens, gout)
        valid = np.ones((b, length), dtype=bool)
        with use_backend(backend_name):
            sids, rows, vals = get_backend().embedding_sparse_grads(
                tokens, gout, valid, vocab
            )
        sparse = SparseBatchGrads(
            batch_size=b, dim=dim, sample_ids=sids, rows=rows, vals=vals
        )
        np.testing.assert_allclose(
            sparse.norm_sq(), dense_norm_sq, err_msg=name, **PARITY
        )
        np.testing.assert_allclose(
            ghost_norm_sq, dense_norm_sq, err_msg=name, **PARITY
        )
