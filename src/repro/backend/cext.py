"""C-accelerated backend: the geometry kernels compiled from embedded C.

The fused-numpy backend still makes ~10 memory-bound passes over the
``(m, d)`` arrays; the only way to collapse them into one register-resident
pass per row is compiled code.  This backend embeds a small C kernel
family, compiles it with the system C compiler on first use
(``-O3 -march=native``) and loads it through ``ctypes``.
Compilation failures of any kind mark the backend unavailable, and the
dispatch layer falls back to the fused-numpy backend — so environments
without a toolchain lose speed, never correctness.

Four kernels run in C: the fused GeoDP perturbation, the spherical
decompose/compose pair, and the canonical-angle fold.  Each is one loop
over rows on the calling thread, and no kernel reduces across rows.  The
ghost-norm family stays on the inherited fused-numpy implementations on
purpose: those kernels are BLAS-bound, and a naive C loop loses to BLAS
(measured).

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
auto-vectorizable) and libm elsewhere.

Output buffers come from the :mod:`repro.backend.workspace` arena, so the
steady-state hot path allocates nothing.

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

__all__ = ["CExtBackend", "compiler_available"]

_C_SOURCE = r"""
#include <math.h>

static const double PI = 3.14159265358979323846;
static const double TWO_PI = 6.28318530717958647692;

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

/* ------------------------------------------------- spherical decompose
 * (m, d) -> magnitudes (m,), angles (m, d-1).  Suffix sums park in the
 * angle row (read-before-write, as above).
 */

void spherical_decompose(const double *g, double *mag, double *theta, long m,
                         long d) {
    for (long i = 0; i < m; i++) {
        const double *gi = g + i * d;
        double *ti = theta + i * (d - 1);
        double acc = 0.0;
        for (long z = d - 2; z >= 0; z--) {
            acc += gi[z + 1] * gi[z + 1];
            ti[z] = acc;
        }
        mag[i] = sqrt(gi[0] * gi[0] + acc);
        for (long z = 0; z < d - 2; z++)
            ti[z] = atan2(sqrt(ti[z]), gi[z]);
        ti[d - 2] = atan2(gi[d - 1], gi[d - 2]);
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

/* ---------------------------------------------- canonical angle fold
 * Mirrors the vectorized reference: whether a polar angle folds is
 * independent of pending negations, so the negation flag at position z
 * is the exclusive prefix parity of the fold flags.  w = d - 1 angle
 * columns: w - 1 polar angles then one azimuth.
 */

void canonicalize_angles(const double *theta, double *out, long m, long w) {
    for (long i = 0; i < m; i++) {
        const double *ti = theta + i * w;
        double *oi = out + i * w;
        int parity = 0;
        for (long j = 0; j < w - 1; j++) {
            /* np.mod: fmod with the sign folded positive. */
            double r = fmod(ti[j], TWO_PI);
            if (r < 0.0) r += TWO_PI;
            int above = r > PI;
            double folded = above ? TWO_PI - r : r;
            oi[j] = parity ? PI - folded : folded;
            parity ^= above;
        }
        double last = ti[w - 1];
        if (parity) last += PI;
        double r = fmod(last + PI, TWO_PI);
        if (r < 0.0) r += TWO_PI;
        r -= PI;
        if (r == -PI) r = PI; /* keep the (-pi, pi] convention */
        oi[w - 1] = r;
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
            lib.spherical_decompose.restype = None
            lib.spherical_decompose.argtypes = [ptr, ptr, ptr, c_long, c_long]
            lib.spherical_compose.restype = None
            lib.spherical_compose.argtypes = [ptr, ptr, ptr, c_long, c_long]
            lib.canonicalize_angles.restype = None
            lib.canonicalize_angles.argtypes = [ptr, ptr, c_long, c_long]
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

    def spherical_decompose(self, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grads = np.ascontiguousarray(grads, dtype=np.float64)
        m, d = grads.shape
        magnitudes = workspace.take(m)
        thetas = workspace.take((m, d - 1))
        self._lib.spherical_decompose(grads, magnitudes, thetas, m, d)
        return magnitudes, thetas

    def spherical_compose(self, magnitudes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        magnitudes = np.ascontiguousarray(magnitudes, dtype=np.float64)
        thetas = np.ascontiguousarray(thetas, dtype=np.float64)
        m, d_minus_1 = thetas.shape
        d = d_minus_1 + 1
        out = workspace.take((m, d))
        self._lib.spherical_compose(magnitudes, thetas, out, m, d)
        return out

    def canonicalize_angles(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.ascontiguousarray(thetas, dtype=np.float64)
        m, w = thetas.shape
        out = workspace.take((m, w))
        self._lib.canonicalize_angles(thetas, out, m, w)
        return out
