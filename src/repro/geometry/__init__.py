"""Hyper-spherical coordinate substrate (paper §V-A).

Converts d-dimensional gradients to/from ``(magnitude, direction)`` pairs,
computes directional error metrics (Definition 4), and implements the
bounding-factor privacy region that determines GeoDP's direction sensitivity
(Algorithm 1, step 2).
"""

from repro.geometry.spherical import (
    to_spherical,
    to_cartesian,
    to_spherical_batch,
    to_cartesian_batch,
)
from repro.geometry.metrics import (
    direction_mse,
    gradient_mse,
    cosine_similarity,
    angle_between,
    angular_errors,
)
from repro.geometry.bounding import (
    direction_sensitivity,
    per_angle_sensitivity,
    bound_angles,
    delta_prime_upper_bound,
)
from repro.geometry.sampling import sample_uniform_sphere, sample_von_mises_fisher
from repro.geometry.statistics import (
    circular_mean,
    circular_variance,
    estimate_vmf_kappa,
    mean_direction,
    resultant_length,
)

__all__ = [
    "to_spherical",
    "to_cartesian",
    "to_spherical_batch",
    "to_cartesian_batch",
    "direction_mse",
    "gradient_mse",
    "cosine_similarity",
    "angle_between",
    "angular_errors",
    "direction_sensitivity",
    "per_angle_sensitivity",
    "bound_angles",
    "delta_prime_upper_bound",
    "sample_uniform_sphere",
    "sample_von_mises_fisher",
    "circular_mean",
    "circular_variance",
    "estimate_vmf_kappa",
    "mean_direction",
    "resultant_length",
]
