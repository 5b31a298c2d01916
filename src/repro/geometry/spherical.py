"""Hyper-spherical (d-spherical) coordinate conversions.

A d-dimensional vector ``g = (g_1, ..., g_d)`` is represented by one
magnitude ``r = ||g||_2`` and ``d - 1`` angles ``theta = (theta_1, ...,
theta_{d-1})`` (paper Eq. 24-25):

.. math::

    \\theta_z = \\operatorname{arctan2}\\Big(\\sqrt{\\sum_{k=z+1}^{d} g_k^2},
                                             g_z\\Big)  \\quad 1 \\le z \\le d-2

    \\theta_{d-1} = \\operatorname{arctan2}(g_d, g_{d-1})

so the leading ``d - 2`` angles lie in ``[0, pi]`` (the arctan2 first argument
is a norm, hence non-negative) and the final angle lies in ``(-pi, pi]``.
The inverse map (Eq. 27) is

.. math::

    g_1 = r\\cos\\theta_1, \\qquad
    g_z = r\\Big(\\prod_{i<z}\\sin\\theta_i\\Big)\\cos\\theta_z, \\qquad
    g_d = r\\prod_{i=1}^{d-1}\\sin\\theta_i.

Both directions are fully vectorised; the batch variants operate on ``(m, d)``
matrices of gradients at once, which is what makes GeoDP's conversions O(d)
per gradient in practice (paper §V-B complexity discussion).

The ``undefined`` arctan2(0, 0) case of Eq. 26 is mapped to 0, matching
numpy's convention; a zero tail with ``g_z = 0`` therefore yields angle 0 and
round-trips to the same (zero) coordinates.

The numeric kernels live behind :mod:`repro.backend` (``spherical_decompose``
/ ``spherical_compose``); this module validates and dispatches.  The default
reference backend reproduces the historical implementation bit-for-bit;
accelerated backends are parity-gated by ``tests/backend/``.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend
from repro.utils.validation import check_matrix, check_vector

__all__ = [
    "to_spherical",
    "to_cartesian",
    "to_spherical_batch",
    "to_cartesian_batch",
]


def to_spherical(g) -> tuple[float, np.ndarray]:
    """Convert one d-dimensional vector to ``(magnitude, angles)``.

    Parameters
    ----------
    g:
        1-D array-like with ``d >= 2`` entries.

    Returns
    -------
    (float, ndarray)
        The magnitude ``||g||`` and the ``d - 1`` angles of Eq. 25.
    """
    g = check_vector("g", g, min_dim=2)
    r, theta = to_spherical_batch(g[None, :])
    return float(r[0]), theta[0]


def to_cartesian(magnitude: float, theta) -> np.ndarray:
    """Convert ``(magnitude, angles)`` back to rectangular coordinates (Eq. 27)."""
    theta = check_vector("theta", theta, min_dim=1)
    g = to_cartesian_batch(np.asarray([magnitude], dtype=np.float64), theta[None, :])
    return g[0]


def to_spherical_batch(grads) -> tuple[np.ndarray, np.ndarray]:
    """Convert a batch of gradients ``(m, d)`` to magnitudes ``(m,)`` and angles ``(m, d-1)``.

    The tail norms ``sqrt(sum_{k>z} g_k^2)`` are computed with a reversed
    cumulative sum of squares, so the whole conversion is O(m*d).
    """
    grads = check_matrix("grads", grads)
    _, d = grads.shape
    if d < 2:
        raise ValueError(f"gradients must have dimension >= 2, got d={d}")
    return get_backend().spherical_decompose(grads)


def to_cartesian_batch(magnitudes, thetas) -> np.ndarray:
    """Convert batches of magnitudes ``(m,)`` and angles ``(m, d-1)`` to gradients ``(m, d)``."""
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    thetas = check_matrix("thetas", thetas)
    if magnitudes.ndim != 1 or magnitudes.shape[0] != thetas.shape[0]:
        raise ValueError(
            f"magnitudes shape {magnitudes.shape} incompatible with thetas {thetas.shape}"
        )
    return get_backend().spherical_compose(magnitudes, thetas)

