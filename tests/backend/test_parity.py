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
from repro.geometry import canonicalize_angles

from tests.backend.conftest import parity_backends

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


@pytest.mark.parametrize("shape", GEOMETRY_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_canonicalize_angles_parity(backend_name, shape, seed):
    """Through the public entry point, which dispatches to the backend."""
    m, d = shape
    noised = np.random.default_rng(seed + 250).normal(0.0, 4.0, size=(m, d - 1))
    ref = REFERENCE.canonicalize_angles(noised)
    with use_backend(backend_name):
        out = canonicalize_angles(noised)
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
    ref_norm = REFERENCE.conv_norm_sq(cols, dy, bias)
    ref_dw, ref_db = REFERENCE.conv_clip_accumulate(cols, dy, factors, bias)
    with use_backend(backend_name):
        norm = get_backend().conv_norm_sq(cols, dy, bias)
        dw, db = get_backend().conv_clip_accumulate(cols, dy, factors, bias)
    np.testing.assert_allclose(norm, ref_norm, **PARITY)
    np.testing.assert_allclose(dw, ref_dw, **PARITY)
    if bias:
        np.testing.assert_allclose(db, ref_db, **PARITY)


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
