"""Budget planning for DP-SGD training runs.

:func:`find_noise_multiplier` finds the smallest sigma achieving a target
``(epsilon, delta)`` for a given sampling rate and step count (the inverse
problem practitioners actually solve; Opacus's ``get_noise_multiplier``).
"""

from __future__ import annotations

from repro.privacy.rdp import DEFAULT_ALPHAS, rdp_subsampled_gaussian, rdp_to_dp
from repro.utils.validation import check_positive, check_probability

__all__ = ["find_noise_multiplier"]


def _composed_epsilon(sigma: float, sample_rate: float, steps: int, delta: float) -> float:
    rdp = steps * rdp_subsampled_gaussian(sample_rate, sigma, DEFAULT_ALPHAS)
    eps, _ = rdp_to_dp(DEFAULT_ALPHAS, rdp, delta)
    return eps


def find_noise_multiplier(
    target_epsilon: float,
    delta: float,
    sample_rate: float,
    steps: int,
    *,
    sigma_max: float = 1e4,
    tol: float = 1e-4,
) -> float:
    """Smallest noise multiplier with epsilon(steps) <= ``target_epsilon``.

    Binary search over the RDP-composed epsilon.  Raises if even
    ``sigma_max`` cannot reach the target (e.g. absurd step counts).
    """
    target_epsilon = check_positive("target_epsilon", target_epsilon)
    delta = check_probability("delta", delta)
    sample_rate = check_probability("sample_rate", sample_rate)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")

    lo, hi = 1e-3, 2.0
    while _composed_epsilon(hi, sample_rate, steps, delta) > target_epsilon:
        hi *= 2
        if hi > sigma_max:
            raise RuntimeError(
                f"cannot reach epsilon={target_epsilon} within sigma <= {sigma_max}"
            )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _composed_epsilon(mid, sample_rate, steps, delta) > target_epsilon:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * hi:
            break
    return hi
