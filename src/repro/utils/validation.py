"""Argument validation helpers shared across the library.

These raise ``ValueError``/``TypeError`` with uniform messages so that tests
can assert on error behaviour and users get consistent diagnostics.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite scalar."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: float, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` lies in (0, 1] (or [0, 1] with ``allow_zero``)."""
    value = float(value)
    low_ok = value >= 0 if allow_zero else value > 0
    if not (low_ok and value <= 1):
        bracket = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must be in {bracket}, got {value}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Validate that ``value`` lies inside the interval [low, high]."""
    value = float(value)
    low_ok = value >= low if inclusive_low else value > low
    high_ok = value <= high if inclusive_high else value < high
    if not (low_ok and high_ok):
        lb = "[" if inclusive_low else "("
        hb = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must be in {lb}{low}, {high}{hb}, got {value}")
    return value


def check_vector(name: str, value, *, min_dim: int = 1) -> np.ndarray:
    """Validate and convert ``value`` into a 1-D float64 array."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] < min_dim:
        raise ValueError(f"{name} must have at least {min_dim} dimensions, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def check_matrix(name: str, value, *, ncols: int | None = None) -> np.ndarray:
    """Validate and convert ``value`` into a 2-D float64 array."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if ncols is not None and arr.shape[1] != ncols:
        raise ValueError(f"{name} must have {ncols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def check_output_path(name: str, path) -> Path:
    """Validate that a file can be created at ``path``: its directory exists."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ValueError(f"{name}: directory {str(path.parent)!r} does not exist")
    return path
