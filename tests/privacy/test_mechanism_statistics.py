"""Statistical test harness for the DP-SGD Gaussian mechanism.

Distributional checks with explicit significance levels rather than loose
``np.isclose`` tolerances: the noise ``perturb_dp_batch`` releases must
match ``sigma * C / B`` under a chi-square bound, its moments must be
Gaussian, and DP-SGD's recorded noise must scale exactly as predicted when
the noise multiplier doubles.  All draws use fixed seeds, so the tests are
deterministic; the quantile bounds say how surprising a failure would be
had the seed been fresh.
"""

import numpy as np
import pytest
from scipy import stats

from repro.core import DpSgdOptimizer, Trainer, perturb_dp_batch
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.telemetry import MetricsRecorder

# Two-sided tail mass for the chi-square bounds.  With fixed seeds the
# tests are deterministic; this is the false-positive rate a fresh seed
# would have, chosen so a true distribution essentially never fails.
ALPHA = 1e-6
N_SAMPLES = 200_000


def chi2_variance_bounds(n: int, alpha: float = ALPHA) -> tuple[float, float]:
    """Acceptance interval for ``sum(x^2) / true_var`` of n N(0, var) draws."""
    return stats.chi2.ppf(alpha / 2, n), stats.chi2.ppf(1 - alpha / 2, n)


class TestGaussianMechanismStatistics:
    """The Gaussian mechanism every DP-SGD step runs, ``perturb_dp_batch``."""

    def sample_noise(self, clip_norm, sigma, batch_size=1, seed=0) -> np.ndarray:
        """Noise alone: the release of one zero gradient, left unclipped."""
        zero = np.zeros((1, N_SAMPLES))
        return perturb_dp_batch(zero, clip_norm, sigma, batch_size, seed, clip=False)[0]

    @pytest.mark.parametrize(
        "clip_norm,sigma,batch_size", [(1.0, 1.0, 1), (0.1, 2.5, 1), (3.0, 0.5, 64)]
    )
    def test_empirical_std_matches_sigma_times_sensitivity(self, clip_norm, sigma, batch_size):
        noise = self.sample_noise(clip_norm, sigma, batch_size)
        lo, hi = chi2_variance_bounds(N_SAMPLES)
        statistic = np.sum(noise**2) / (sigma * clip_norm / batch_size) ** 2
        assert lo < statistic < hi

    def test_wrong_scale_rejected(self):
        """The chi-square bound has power: a 5% miscalibration fails it."""
        noise = self.sample_noise(1.0, sigma=1.05)
        lo, hi = chi2_variance_bounds(N_SAMPLES)
        statistic = np.sum(noise**2) / 1.0  # claimed sigma = 1.0
        assert not lo < statistic < hi

    def test_moments_are_gaussian(self):
        scale = 2.0
        noise = self.sample_noise(1.0, sigma=scale)
        n = N_SAMPLES
        # Mean of n draws is N(0, scale^2 / n).
        z = abs(np.mean(noise)) / (scale / np.sqrt(n))
        assert z < stats.norm.ppf(1 - ALPHA / 2)
        # Standardised fourth moment -> 3; estimator std is sqrt(96/n).
        kurtosis = np.mean(noise**4) / scale**4
        assert abs(kurtosis - 3.0) < stats.norm.ppf(1 - ALPHA / 2) * np.sqrt(96 / n)


@pytest.mark.slow
class TestDpSgdNoiseScaling:
    """Doubling sigma must exactly double DP-SGD's recorded noise norms."""

    ITERS = 25

    def run(self, sigma: float) -> MetricsRecorder:
        data = make_mnist_like(300, rng=0, size=10)
        train, _ = train_test_split(data, rng=0)
        recorder = MetricsRecorder()
        model = build_logistic_regression((1, 10, 10), rng=0)
        optimizer = DpSgdOptimizer(1.0, 0.1, sigma, rng=11)
        Trainer(
            model, optimizer, train, batch_size=64, rng=5, telemetry=recorder
        ).train(self.ITERS)
        return recorder

    def test_noise_norm_doubles_with_sigma(self):
        base = self.run(sigma=1.0)
        doubled = self.run(sigma=2.0)
        assert base.values("sigma") == [1.0] * self.ITERS
        assert doubled.values("sigma") == [2.0] * self.ITERS
        # Same noise seed and same draw shapes, so the underlying standard
        # normals are identical and the norms scale exactly linearly.
        np.testing.assert_allclose(
            doubled.values("noise_norm"),
            2.0 * np.asarray(base.values("noise_norm")),
            rtol=1e-12,
        )

    def test_noise_to_signal_scales_as_predicted(self):
        base = self.run(sigma=1.0)
        doubled = self.run(sigma=2.0)
        # Trajectories diverge, so compare the seed-robust per-run means:
        # noise-to-signal = noise_norm / post_clip_norm should double too,
        # up to the (small) drift in the post-clip signal norm.
        ratio = np.mean(doubled.values("noise_to_signal")) / np.mean(
            base.values("noise_to_signal")
        )
        assert 1.6 < ratio < 2.4
