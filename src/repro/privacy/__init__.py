"""Differential-privacy substrate.

Implements the calibration routines, accountants and per-sample clipping
strategies that DP-SGD and GeoDP-SGD are built on.  Everything is
implemented from first principles (no Opacus): classic and analytic noise
calibration for the Gaussian mechanism (paper §III-A), Renyi-DP accounting
for the (Poisson-subsampled) Gaussian mechanism (paper §II-A's RDP [9]),
composition theorems, and the clipping rules the paper benchmarks against
(flat clipping Eq. 6, AUTO-S [58], PSAC [51]).
"""

from repro.privacy.calibration import (
    classic_gaussian_sigma,
    analytic_gaussian_sigma,
    gaussian_epsilon,
    analytic_gaussian_delta,
)
from repro.privacy.rdp import (
    DEFAULT_ALPHAS,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    rdp_to_dp,
)
from repro.privacy.accountant import RdpAccountant, GaussianAccountant, PrivacySpent
from repro.privacy.pld import PldAccountant, PrivacyLossDistribution
from repro.privacy.gdp import (
    GdpAccountant,
    dpsgd_gdp_mu,
    gaussian_gdp_mu,
    gdp_delta,
    gdp_epsilon,
)
from repro.privacy.composition import basic_composition, advanced_composition
from repro.privacy.curves import find_noise_multiplier
from repro.privacy.clipping import (
    ClippingStrategy,
    FlatClipping,
    AutoSClipping,
    PsacClipping,
)
from repro.privacy.ledger import (
    GENESIS_HASH,
    LedgerError,
    LedgerVerification,
    ReleaseLedger,
    ReleaseRecord,
    verify_ledger,
)

__all__ = [
    "classic_gaussian_sigma",
    "analytic_gaussian_sigma",
    "gaussian_epsilon",
    "analytic_gaussian_delta",
    "DEFAULT_ALPHAS",
    "rdp_gaussian",
    "rdp_subsampled_gaussian",
    "rdp_to_dp",
    "RdpAccountant",
    "GaussianAccountant",
    "PrivacySpent",
    "PldAccountant",
    "PrivacyLossDistribution",
    "GdpAccountant",
    "dpsgd_gdp_mu",
    "gaussian_gdp_mu",
    "gdp_delta",
    "gdp_epsilon",
    "basic_composition",
    "advanced_composition",
    "find_noise_multiplier",
    "ClippingStrategy",
    "FlatClipping",
    "AutoSClipping",
    "PsacClipping",
    "ReleaseLedger",
    "ReleaseRecord",
    "GENESIS_HASH",
    "LedgerError",
    "LedgerVerification",
    "verify_ledger",
]
