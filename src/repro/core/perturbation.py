"""Gradient perturbation primitives.

Two perturbation schemes act on an *averaged clipped* gradient
``g_tilde = (1/B) sum_j clip(g_j)``:

* :func:`perturb_dp` — classic DP-SGD (paper Eq. 8):
  ``g* = g_tilde + (C/B) * n_sigma`` with ``n_sigma ~ N(0, sigma^2 I_d)``.
* :func:`perturb_geodp` — GeoDP (Algorithm 1, steps 6-9): convert to
  hyper-spherical coordinates, perturb magnitude and direction separately,

  ``|g|* = |g_tilde| + (C/B) * n_sigma``
  ``theta* = theta + (sqrt(d+2) * beta * pi / B) * n_sigma``

  then convert back.  The direction noise scale is the bounded-region
  sensitivity of §V-B; ``beta`` trades directional accuracy (smaller noise)
  against the coverage failure probability ``delta' <= 1 - beta`` (Lemma 2).

The ``*_batch`` variants perturb ``m`` gradients at once — this is the
workhorse of the Figure 1/3/4 MSE experiments, where every synthetic
gradient plays the role of one averaged batch gradient.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend, workspace
from repro.geometry.bounding import (
    bound_angles,
    direction_sensitivity,
    per_angle_sensitivity,
)
from repro.geometry.spherical import to_cartesian_batch, to_spherical_batch
from repro.telemetry.tracing import maybe_span
from repro.utils.rng import as_rng
from repro.utils.validation import check_matrix, check_positive, check_probability

__all__ = [
    "clip_gradients",
    "perturb_dp",
    "perturb_geodp",
    "perturb_dp_batch",
    "perturb_geodp_batch",
]


def clip_gradients(grads, clip_norm: float) -> np.ndarray:
    """Flat-clip each row of ``grads`` to L2 norm at most ``clip_norm`` (Eq. 6).

    All working memory comes from the :mod:`repro.backend.workspace` arena
    (the returned buffer is owned by the caller); the in-place formulation
    is bit-identical to the historical ``np.linalg.norm`` expression.
    """
    grads = check_matrix("grads", grads)
    clip_norm = check_positive("clip_norm", clip_norm)
    m = grads.shape[0]
    out = workspace.take(grads.shape)
    with workspace.scratch(grads.shape) as sq, workspace.scratch(m) as scale:
        np.multiply(grads, grads, out=sq)
        np.add.reduce(sq, axis=1, out=scale)
        np.sqrt(scale, out=scale)
        scale /= clip_norm
        np.maximum(scale, 1.0, out=scale)
        np.divide(1.0, scale, out=scale)
        np.multiply(grads, scale[:, None], out=out)
    return out


def perturb_dp_batch(
    grads,
    clip_norm: float,
    noise_multiplier: float,
    batch_size: int,
    rng=None,
    *,
    clip: bool = True,
) -> np.ndarray:
    """Classic DP perturbation of ``m`` averaged gradients (Eq. 8).

    Each row is clipped (unless ``clip=False``) and released as
    ``g_tilde + (C/B) * N(0, sigma^2 I)``.
    """
    grads = check_matrix("grads", grads)
    clip_norm = check_positive("clip_norm", clip_norm)
    noise_multiplier = check_positive("noise_multiplier", noise_multiplier, strict=False)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = as_rng(rng)

    clipped = clip_gradients(grads, clip_norm) if clip else grads
    if noise_multiplier == 0:
        # sigma = 0 must consume no randomness, matching the optimizers'
        # noiseless path, so DP runs and their noise-free baselines share
        # one RNG stream.  Copy so callers never alias the input.
        return clipped if clip else clipped.copy()
    # Draw into a workspace buffer and scale in place: bit-identical to
    # ``clipped + (C/B) * rng.normal(0, sigma, shape)`` (same stream, same
    # element-wise arithmetic) with zero steady-state allocation.
    out = workspace.take(clipped.shape)
    rng.standard_normal(out=out)
    out *= noise_multiplier
    out *= clip_norm / batch_size
    out += clipped
    if clip:
        workspace.give(clipped)
    return out


def perturb_geodp_batch(
    grads,
    clip_norm: float,
    noise_multiplier: float,
    batch_size: int,
    beta: float,
    rng=None,
    *,
    clip: bool = True,
    sensitivity_mode: str = "total",
    clamp_to_region: bool = False,
    tracer=None,
) -> np.ndarray:
    """GeoDP perturbation of ``m`` averaged gradients (Algorithm 1 steps 6-9).

    Magnitudes and all ``d - 1`` angles receive independent Gaussian noise
    with the scales of Algorithm 1 step 8; the result is converted back to
    rectangular coordinates.

    ``sensitivity_mode`` selects the direction-noise calibration:

    * ``"total"`` (default) — Algorithm 1 exactly as stated: every angle's
      noise scale is the *total* L2 sensitivity ``sqrt(d+2) * beta * pi / B``.
    * ``"per_angle"`` — each angle is scaled by its own range from step 7
      (``beta*pi/B`` for polar angles, ``2*beta*pi/B`` for the azimuth).
      The paper's reported experiment results (e.g. beta = 0.1 winning at
      d ~ 21,840) are only consistent with this calibration; with the
      stated total-sensitivity scale those same beta values lose badly.
      See EXPERIMENTS.md for the full analysis of the discrepancy.

    ``clamp_to_region`` controls how the bounded direction region is
    enforced.  Algorithm 1 as written does not clamp — directions outside
    the beta-region are covered by the delta' relaxation (Lemma 2).  With
    ``clamp_to_region=True`` the clean angles are first clamped into the
    fixed centred beta-region (``bound_angles``), which makes the
    advertised sensitivity hold unconditionally at the cost of biasing
    directions that lie outside the region.

    ``tracer`` (an optional :class:`~repro.telemetry.tracing.Tracer`) times
    the spherical-coordinate work as ``"spherical"`` phase spans (one fused
    span on the hot path, one per conversion on the sigma-0 / clamped
    paths); it never touches the RNG.

    The hot path dispatches to the active :mod:`repro.backend` kernel
    (``geodp_perturb``); the backend never draws randomness, so switching
    backends cannot change which random numbers the release consumes.
    """
    grads = check_matrix("grads", grads)
    clip_norm = check_positive("clip_norm", clip_norm)
    noise_multiplier = check_positive("noise_multiplier", noise_multiplier, strict=False)
    beta = check_probability("beta", beta)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = as_rng(rng)

    clipped = clip_gradients(grads, clip_norm) if clip else grads

    m, d = clipped.shape
    mag_scale = clip_norm / batch_size
    if sensitivity_mode == "total":
        dir_scale = direction_sensitivity(d, beta) / batch_size
    elif sensitivity_mode == "per_angle":
        dir_scale = per_angle_sensitivity(d, beta)[None, :] / batch_size
    else:
        raise ValueError(
            f"sensitivity_mode must be 'total' or 'per_angle', got {sensitivity_mode!r}"
        )

    if noise_multiplier == 0 or clamp_to_region:
        # Explicit round trip: sigma = 0 keeps the spherical conversion so
        # the numerical path is unchanged (and consumes no randomness, see
        # perturb_dp_batch); clamping has to edit the clean angles between
        # the two conversions, so the fused kernel does not apply.
        with maybe_span(tracer, "spherical"):
            magnitudes, thetas = to_spherical_batch(clipped)
        if clamp_to_region:
            thetas = bound_angles(thetas, beta)
        if noise_multiplier == 0:
            with maybe_span(tracer, "spherical"):
                out = to_cartesian_batch(magnitudes, thetas)
            if clip:
                workspace.give(clipped)
            return out
        noisy_mag = magnitudes + mag_scale * rng.normal(
            0.0, noise_multiplier, size=magnitudes.shape
        )
        noisy_theta = thetas + dir_scale * rng.normal(
            0.0, noise_multiplier, size=thetas.shape
        )
        with maybe_span(tracer, "spherical"):
            return to_cartesian_batch(noisy_mag, noisy_theta)

    # Hot path: draw the noise here — same order, shapes and scaling as the
    # explicit path above, so every backend consumes the identical RNG
    # stream — then hand the deterministic fused kernel to the backend.
    # The reference backend is literally decompose -> add -> compose,
    # bit-identical to the historical implementation.  Noise buffers come
    # from the workspace arena; drawing with ``standard_normal(out=...)``
    # and scaling in place consumes the same stream and produces the same
    # bits as ``scale * rng.normal(0, sigma, shape)``.
    mag_noise = workspace.take(m)
    rng.standard_normal(out=mag_noise)
    mag_noise *= noise_multiplier
    mag_noise *= mag_scale
    theta_noise = workspace.take((m, d - 1))
    rng.standard_normal(out=theta_noise)
    theta_noise *= noise_multiplier
    theta_noise *= dir_scale
    with maybe_span(tracer, "spherical"):
        out = get_backend().geodp_perturb(clipped, mag_noise, theta_noise)
    workspace.give(mag_noise)
    workspace.give(theta_noise)
    if clip:
        workspace.give(clipped)
    return out


def perturb_dp(
    grad,
    clip_norm: float,
    noise_multiplier: float,
    batch_size: int,
    rng=None,
    *,
    clip: bool = True,
) -> np.ndarray:
    """Classic DP perturbation of a single averaged gradient (Eq. 8)."""
    grad = np.asarray(grad, dtype=np.float64)
    return perturb_dp_batch(
        grad[None, :], clip_norm, noise_multiplier, batch_size, rng, clip=clip
    )[0]


def perturb_geodp(
    grad,
    clip_norm: float,
    noise_multiplier: float,
    batch_size: int,
    beta: float,
    rng=None,
    *,
    clip: bool = True,
    sensitivity_mode: str = "total",
    tracer=None,
) -> np.ndarray:
    """GeoDP perturbation of a single averaged gradient (Algorithm 1)."""
    grad = np.asarray(grad, dtype=np.float64)
    return perturb_geodp_batch(
        grad[None, :],
        clip_norm,
        noise_multiplier,
        batch_size,
        beta,
        rng,
        clip=clip,
        sensitivity_mode=sensitivity_mode,
        tracer=tracer,
    )[0]

