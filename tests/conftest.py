"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def gradient_batch(rng) -> np.ndarray:
    """A small batch of random gradients ``(40, 25)``."""
    return rng.normal(size=(40, 25))


def numerical_gradient(f, x, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(x)
        flat[i] = orig - eps
        f_minus = f(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def series_at(recorder, iteration: int) -> dict[str, float]:
    """``name -> value`` of the series points recorded at ``iteration``;
    the last point wins when a series has several there."""
    return {
        name: value
        for name, points in recorder.series.items()
        for step, value in points
        if step == iteration
    }
