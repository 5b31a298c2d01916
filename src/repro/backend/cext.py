"""C-accelerated backend: the geometry kernels, ``col2im`` and the 2x2 max
pool compiled from embedded C.

The fused-numpy backend still makes ~10 memory-bound passes over the
``(m, d)`` arrays; the only way to collapse them into one register-resident
pass per row is compiled code.  This backend embeds a small C kernel
family, compiles it with the system C compiler on first use
(``-O3 -march=native``) and loads it through ``ctypes``.
Compilation failures of any kind mark the backend unavailable, and the
dispatch layer falls back to the fused-numpy backend — so environments
without a toolchain lose speed, never correctness.

Four kernels run in C: the fused GeoDP perturbation, the spherical
compose, the conv ``col2im`` scatter and the 2x2 max pool (forward and
backward).  Each is one loop on the calling
thread, over rows (the geometry kernels) or over ``(sample, channel)``
image planes (``col2im``, the pool), and no kernel reduces across rows or
planes.  Numpy runs ``col2im`` as ``k*k`` strided
adds whose inner loops are 8-32 elements long; one C pass per plane beats
it on every conv the step workloads run (median of 30 calls interleaved
with the reference's, three repeats, on a 2-CPU VM with one BLAS thread:
2.6-3.5x on the 3x3 stride-1 convolutions, e.g. 2.50 ms -> 0.75 ms for an
x of shape (16, 8, 32, 32); 2.5-3.0x at stride 2; 1.3-1.7x on the 1x1
stride-2 projections).  Numpy runs the max pool's tie mask, tie counts and
gradient spread as 6-D broadcasts with 2-element inner loops; the C pool
is written for the 2x2 windows every model builds, and beats it 4-6x
(same measurement: forward 0.72-1.05 ms against numpy's 4.18-5.22 ms,
backward 1.13-1.35 ms against 5.76-7.05 ms, at an x of shape
(128, 8, 28, 28); at (128, 16, 14, 14) forward 0.40-0.58 ms against
1.84-2.44 ms, backward 0.45-0.63 ms against 2.29-3.19 ms).  The plain
loop lost: a window loop over a runtime ``k`` with numpy's NaN-propagating
``(m >= v || m != m) ? m : v`` compiles to branches and no max
instruction, and took 5.56-6.96 ms per forward at (128, 8, 28, 28), slower
than numpy.  The 2x2 loop takes each max with the branch-free
``v > m ? v : m``, which compiles to ``maxsd``/``maxpd`` but drops a NaN,
redoes any row whose inputs hold a NaN with the propagating max, and
writes the mask in a second pass over the row.  Other kernel sizes stay on
the inherited numpy.  The rest stay on the inherited fused-numpy
implementations on purpose, because a plain C loop loses to them
(measured): the ghost-norm family is BLAS-bound, and the spherical
decompose is an ``atan2`` per coordinate, which numpy vectorizes and the
C loop did not (median of 30 calls at (64, 5000) on the same VM: 10.7 ms
in C, 4.4 ms fused).

The kernels keep no per-row scratch and no global state: the backward
suffix-sum pass stores into the *output* row and the forward pass reads
each slot just before overwriting it.  So a call touches only the
buffers it is handed, and concurrent calls from several Python threads
(ctypes releases the GIL) cannot interfere.

The perturbation kernel mirrors the fused-numpy algorithm exactly (same
reversed suffix-sum order, same zero-denominator convention, angle
addition with ``sin``/``cos`` of the noise only), keeping it inside the
1e-10 parity budget of ``tests/backend/``.  The ``sin``/``cos`` of the
noise uses a Taylor polynomial on ``|x| <= 0.5`` (error < 1e-16,
auto-vectorizable) and libm elsewhere.  ``col2im`` is held to more than
that budget: it visits kernel offsets in the reference's ``(i, j)`` order,
so each pixel receives the same adds in the same order and the output is
bit-identical.  The pool is too: its masks are equal to the reference's,
its input gradients equal bit for bit (one division per window, then
numpy's ``bool * float64``, ``-0.0`` included), and its maxima equal in
value; only a tie of ``+0.0`` and ``-0.0`` may return the other sign.

Output buffers come from the :mod:`repro.backend.workspace` arena, so the
steady-state release path allocates nothing.  ``col2im`` zero-fills a
``take`` buffer that the caller keeps as its input gradient, so each call
counts one ``workspace_misses``; the pool's output, mask and input
gradient count one each.

Compiled artifacts are cached next to this module (``_build/``, keyed by
source hash) so the cost is one compile per source change per machine; a
read-only install transparently falls back to a per-user temp directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.backend import workspace
from repro.backend.fused import FusedBackend
from repro.backend.reference import check_maxpool_backward

__all__ = ["CExtBackend", "compiler_available"]

_C_SOURCE = r"""
#include <math.h>

/* ------------------------------------------------- fused GeoDP perturb
 * Fused to_spherical -> perturb -> to_cartesian, one pass per row.  The
 * backward pass parks the suffix sums of squares in the output row; the
 * forward pass reads each slot immediately before overwriting it, so the
 * kernel needs no scratch.
 *
 * g: (m, d) clipped gradients; mag_noise: (m,) and dir_noise: (m, d-1)
 * pre-scaled noise; out: (m, d).
 */

void geodp_perturb(const double *g, const double *mag_noise,
                   const double *dir_noise, double *out, long m, long d) {
    for (long i = 0; i < m; i++) {
        const double *gi = g + i * d;
        const double *ni = dir_noise + i * (d - 1);
        double *oi = out + i * d;

        /* Suffix sums of squares, accumulated from the end in the same
         * sequential order as the reversed-cumsum reference, stored in
         * the output slots they will later replace. */
        double acc = 0.0;
        for (long z = d - 2; z >= 0; z--) {
            acc += gi[z + 1] * gi[z + 1];
            oi[z] = acc;
        }
        double total = gi[0] * gi[0] + acc;
        double noisy_mag = sqrt(total) + mag_noise[i];

        /* Each iteration's sqrt(tail) is the next iteration's
         * denominator, so carry it over and spend one sqrt and one
         * division per coordinate instead of two of each. */
        double sinprod = 1.0;
        double denom = sqrt(total);
        for (long z = 0; z < d - 1; z++) {
            double ct, st, next_denom = 0.0;
            if (denom == 0.0) {
                ct = 1.0; /* arctan2(0, 0) == 0 convention */
                st = 0.0;
            } else if (z < d - 2) {
                double inv = 1.0 / denom;
                next_denom = sqrt(oi[z]); /* tail parked here; overwritten below */
                ct = gi[z] * inv;
                st = next_denom * inv;
            } else {
                double inv = 1.0 / denom;
                ct = gi[z] * inv;
                st = gi[z + 1] * inv; /* azimuth keeps the sign */
            }
            denom = next_denom;
            double n = ni[z], sn, cn;
            if (fabs(n) <= 0.5) {
                double x2 = n * n;
                sn = n * (1.0 + x2 * (-1.0 / 6 + x2 * (1.0 / 120
                        + x2 * (-1.0 / 5040 + x2 * (1.0 / 362880
                        + x2 * (-1.0 / 39916800))))));
                cn = 1.0 + x2 * (-0.5 + x2 * (1.0 / 24
                        + x2 * (-1.0 / 720 + x2 * (1.0 / 40320
                        + x2 * (-1.0 / 3628800 + x2 * (1.0 / 479001600))))));
            } else {
                sn = sin(n);
                cn = cos(n);
            }
            oi[z] = noisy_mag * sinprod * (ct * cn - st * sn);
            sinprod *= st * cn + ct * sn;
        }
        oi[d - 1] = noisy_mag * sinprod;
    }
}

/* -------------------------------------------------- spherical compose */

void spherical_compose(const double *mag, const double *theta, double *out,
                       long m, long d) {
    for (long i = 0; i < m; i++) {
        const double *ti = theta + i * (d - 1);
        double *oi = out + i * d;
        double mi = mag[i];
        double sinprod = 1.0;
        for (long z = 0; z < d - 1; z++) {
            double st = sin(ti[z]);
            double ct = cos(ti[z]);
            oi[z] = mi * (sinprod * ct);
            sinprod *= st;
        }
        oi[d - 1] = mi * sinprod;
    }
}

/* ------------------------------------------------------------ col2im
 * Scatter-add (planes, k*k, oh*ow) columns into (planes, h, w) images,
 * where a plane is one (sample, channel) pair.  Kernel offsets (i, j) are
 * visited in the reference's order, so every pixel receives its adds in
 * the same sequence as the numpy strided adds: bit-identical.  Columns
 * that land in the padding are skipped instead of cropped afterwards.
 */

void col2im(const double *restrict cols, double *restrict out, long planes,
            long h, long w, long k, long stride, long pad, long oh, long ow) {
    long area = h * w;
    long length = oh * ow;
    for (long p = 0; p < planes; p++) {
        double *op = out + p * area;
        const double *cp = cols + p * k * k * length;
        for (long t = 0; t < area; t++) op[t] = 0.0;
        for (long i = 0; i < k; i++) {
            for (long j = 0; j < k; j++) {
                const double *cij = cp + (i * k + j) * length;
                /* Output columns ow_lo <= c < ow_hi land inside [0, w). */
                long ow_lo = 0, ow_hi = ow;
                while (ow_lo < ow_hi && j - pad + stride * ow_lo < 0) ow_lo++;
                while (ow_hi > ow_lo && j - pad + stride * (ow_hi - 1) >= w) ow_hi--;
                for (long r = 0; r < oh; r++) {
                    long y = i - pad + stride * r;
                    if (y < 0 || y >= h) continue;
                    double *orow = op + y * w;
                    const double *crow = cij + r * ow;
                    long x0 = j - pad;
                    if (stride == 1) { /* unit stride: lets the adds vectorize */
                        for (long c = ow_lo; c < ow_hi; c++)
                            orow[x0 + c] += crow[c];
                    } else {
                        for (long c = ow_lo; c < ow_hi; c++)
                            orow[x0 + stride * c] += crow[c];
                    }
                }
            }
        }
    }
}

/* -------------------------------------------------------- 2x2 max pool
 * Over (planes, h, w) images with even h and w, one pooled row at a time.
 * Each window's max is taken in the reference's slice order (0,0), (0,1),
 * (1,0), (1,1) with the branch-free v > m ? v : m, which compiles to
 * maxsd/maxpd but drops a NaN; a row whose inputs hold a NaN is redone
 * with numpy's NaN-propagating maximum.  The mask, x == max, is written in
 * a second pass over the row.
 */

void maxpool2x2(const double *restrict x, double *restrict out,
                unsigned char *restrict mask, long planes, long h, long w) {
    long oh = h / 2, ow = w / 2;
    for (long p = 0; p < planes; p++) {
        for (long r = 0; r < oh; r++) {
            const double *x0 = x + (p * h + 2 * r) * w, *x1 = x0 + w;
            unsigned char *m0 = mask + (p * h + 2 * r) * w, *m1 = m0 + w;
            double *o = out + (p * oh + r) * ow;
            int unordered = 0;
            for (long c = 0; c < ow; c++) {
                double a = x0[2 * c], b = x0[2 * c + 1];
                double d = x1[2 * c], e = x1[2 * c + 1];
                double m = b > a ? b : a;
                m = d > m ? d : m;
                o[c] = e > m ? e : m;
                unordered |= __builtin_isunordered(a, b) | __builtin_isunordered(d, e);
            }
            if (unordered) {
                for (long c = 0; c < ow; c++) {
                    double m = x0[2 * c], v;
                    v = x0[2 * c + 1]; m = (m >= v || m != m) ? m : v;
                    v = x1[2 * c];     m = (m >= v || m != m) ? m : v;
                    v = x1[2 * c + 1]; m = (m >= v || m != m) ? m : v;
                    o[c] = m;
                }
            }
            for (long c = 0; c < ow; c++) {
                double m = o[c];
                m0[2 * c] = x0[2 * c] == m;
                m0[2 * c + 1] = x0[2 * c + 1] == m;
                m1[2 * c] = x1[2 * c] == m;
                m1[2 * c + 1] = x1[2 * c + 1] == m;
            }
        }
    }
}

/* Its adjoint: each window's upstream gradient divided by the window's tie
 * count (at least 1) and written as (double)mask * share, numpy's bool *
 * float64, so an unset position reads 0.0 * share with the same sign. */

void maxpool2x2_backward(const double *restrict grad,
                         const unsigned char *restrict mask,
                         double *restrict out, long planes, long h, long w) {
    long oh = h / 2, ow = w / 2;
    for (long p = 0; p < planes; p++) {
        for (long r = 0; r < oh; r++) {
            const unsigned char *m0 = mask + (p * h + 2 * r) * w, *m1 = m0 + w;
            double *o0 = out + (p * h + 2 * r) * w, *o1 = o0 + w;
            const double *g = grad + (p * oh + r) * ow;
            for (long c = 0; c < ow; c++) {
                int ties = m0[2 * c] + m0[2 * c + 1] + m1[2 * c] + m1[2 * c + 1];
                double share = g[c] / (double)(ties > 1 ? ties : 1);
                o0[2 * c] = (double)m0[2 * c] * share;
                o0[2 * c + 1] = (double)m0[2 * c + 1] * share;
                o1[2 * c] = (double)m1[2 * c] * share;
                o1[2 * c + 1] = (double)m1[2 * c + 1] * share;
            }
        }
    }
}
"""

_LIB = None
_PROBED = False


def _build_dirs() -> list[Path]:
    """Candidate cache directories, most preferred first."""
    return [
        Path(__file__).resolve().parent / "_build",
        Path(tempfile.gettempdir()) / f"repro-cext-{os.getuid() if hasattr(os, 'getuid') else 'u'}",
    ]


def _compile() -> ctypes.CDLL | None:
    """Compile (or reuse) the shared library; None on any failure."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    suffix = ".dll" if sys.platform == "win32" else ".so"
    for build_dir in _build_dirs():
        so_path = build_dir / f"geodp_{digest}{suffix}"
        if so_path.exists():
            try:
                return ctypes.CDLL(str(so_path))
            except OSError:
                continue
        try:
            build_dir.mkdir(parents=True, exist_ok=True)
            c_path = build_dir / f"geodp_{digest}.c"
            c_path.write_text(_C_SOURCE)
            for cc in ("cc", "gcc", "clang"):
                cmd = [cc, "-O3", "-march=native", "-shared", "-fPIC",
                       "-o", str(so_path) + ".tmp", str(c_path), "-lm"]
                try:
                    proc = subprocess.run(
                        cmd, capture_output=True, timeout=120, check=False
                    )
                except (OSError, subprocess.TimeoutExpired):
                    continue
                if proc.returncode == 0:
                    # Atomic rename so concurrent probes never load a
                    # half-written library.
                    os.replace(str(so_path) + ".tmp", str(so_path))
                    return ctypes.CDLL(str(so_path))
        except OSError:
            continue
    return None


def _load() -> ctypes.CDLL | None:
    global _LIB, _PROBED
    if not _PROBED:
        _PROBED = True
        lib = _compile()
        if lib is not None:
            ptr = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
            c_long = ctypes.c_long
            lib.geodp_perturb.restype = None
            lib.geodp_perturb.argtypes = [ptr, ptr, ptr, ptr, c_long, c_long]
            lib.spherical_compose.restype = None
            lib.spherical_compose.argtypes = [ptr, ptr, ptr, c_long, c_long]
            lib.col2im.restype = None
            lib.col2im.argtypes = [ptr, ptr] + [c_long] * 8
            bools = np.ctypeslib.ndpointer(dtype=np.bool_, flags="C_CONTIGUOUS")
            lib.maxpool2x2.restype = None
            lib.maxpool2x2.argtypes = [ptr, ptr, bools] + [c_long] * 3
            lib.maxpool2x2_backward.restype = None
            lib.maxpool2x2_backward.argtypes = [ptr, bools, ptr] + [c_long] * 3
        _LIB = lib
    return _LIB


def compiler_available() -> bool:
    """Whether the C kernels compiled (cached probe; compiles on first call)."""
    return _load() is not None


class CExtBackend(FusedBackend):
    """Fused-numpy backend with the geometry kernel family in compiled C."""

    name = "cext"
    accelerated = True

    def __init__(self):
        lib = _load()
        if lib is None:
            raise RuntimeError("no working C compiler; cext backend unavailable")
        self._lib = lib

    def geodp_perturb(
        self, clipped: np.ndarray, mag_noise: np.ndarray, theta_noise: np.ndarray
    ) -> np.ndarray:
        clipped = np.ascontiguousarray(clipped, dtype=np.float64)
        mag_noise = np.ascontiguousarray(mag_noise, dtype=np.float64)
        theta_noise = np.ascontiguousarray(theta_noise, dtype=np.float64)
        m, d = clipped.shape
        out = workspace.take((m, d))
        self._lib.geodp_perturb(clipped, mag_noise, theta_noise, out, m, d)
        return out

    def spherical_compose(self, magnitudes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        magnitudes = np.ascontiguousarray(magnitudes, dtype=np.float64)
        thetas = np.ascontiguousarray(thetas, dtype=np.float64)
        m, d_minus_1 = thetas.shape
        d = d_minus_1 + 1
        out = workspace.take((m, d))
        self._lib.spherical_compose(magnitudes, thetas, out, m, d)
        return out

    def col2im(
        self,
        cols: np.ndarray,
        x_shape: tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        # Imported here: repro.nn imports this package at module load.
        from repro.nn.functional import conv_output_shape

        batch, channels, height, width = x_shape
        out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)
        cols = np.ascontiguousarray(cols, dtype=np.float64)
        if cols.size != batch * channels * kernel * kernel * out_h * out_w:
            # The C loop trusts the geometry; never let it read past cols.
            raise ValueError(
                f"cols of shape {cols.shape} do not fit x_shape {tuple(x_shape)} "
                f"with kernel={kernel}, stride={stride}, padding={padding}"
            )
        out = workspace.take((batch, channels, height, width))
        self._lib.col2im(
            cols, out, batch * channels, height, width,
            kernel, stride, padding, out_h, out_w,
        )
        return out

    def maxpool2d(self, x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
        if kernel != 2:
            return super().maxpool2d(x, kernel)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
            # The C loop trusts the geometry; never let it read past x.
            raise ValueError(
                f"2x2 max pool needs (B, C, H, W) with even H and W, got {x.shape}"
            )
        batch, channels, height, width = x.shape
        out = workspace.take((batch, channels, height // 2, width // 2))
        mask = workspace.take(x.shape, dtype=np.bool_)
        self._lib.maxpool2x2(x, out, mask, batch * channels, height, width)
        return out, mask

    def maxpool2d_backward(
        self, grad_out: np.ndarray, mask: np.ndarray, kernel: int
    ) -> np.ndarray:
        if kernel != 2:
            return super().maxpool2d_backward(grad_out, mask, kernel)
        # Checked again here: the C loop trusts the shapes.
        check_maxpool_backward(grad_out, mask, kernel)
        grad_out = np.ascontiguousarray(grad_out, dtype=np.float64)
        mask = np.ascontiguousarray(mask)
        batch, channels, height, width = mask.shape
        grad_in = workspace.take(mask.shape)
        self._lib.maxpool2x2_backward(
            grad_out, mask, grad_in, batch * channels, height, width
        )
        return grad_in
