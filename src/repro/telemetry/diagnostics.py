"""Geometric diagnostics of DP gradient releases.

These helpers compute the per-step quantities the paper reasons about —
how much clipping bit, how large the injected noise is relative to the
signal, and most importantly the *angular deviation* between the true
(clipped, averaged) gradient and the released noisy gradient.  The paper's
central claim (Theorem 1 / Fig. 1) is that GeoDP's released direction stays
closer to the true direction than classic DP-SGD's at equal budget; with
these diagnostics attached to a recorder that claim becomes a measurable,
testable per-step signal instead of something inferred from final accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.backend import note_backend

__all__ = [
    "clip_diagnostics",
    "release_diagnostics",
    "record_clipping",
    "record_release",
]


def clip_diagnostics(norms, threshold: float) -> dict[str, float]:
    """Clipping statistics of one batch from its pre-clip per-sample norms.

    Returns the mean and max pre-clip L2 norm and the fraction of samples
    whose norm exceeded ``threshold`` (and were therefore scaled down by
    flat clipping).  An empty batch (Poisson sampling) yields zeros.

    ``norms`` are the norms the clip itself computed (as returned by
    :meth:`~repro.privacy.clipping.ClippingStrategy.clip_with_norms` or the
    ghost pass), so the hot path never walks the ``(B, d)`` matrix twice.
    """
    norms = np.asarray(norms, dtype=np.float64)
    if norms.size == 0:
        return {
            "pre_clip_norm_mean": 0.0,
            "pre_clip_norm_max": 0.0,
            "clipped_fraction": 0.0,
        }
    return {
        "pre_clip_norm_mean": float(norms.mean()),
        "pre_clip_norm_max": float(norms.max()),
        "clipped_fraction": float(np.mean(norms > threshold * (1 + 1e-12))),
    }


def release_diagnostics(clean, noisy) -> dict[str, float]:
    """Geometric statistics of one DP release versus its clean input.

    ``clean`` is the averaged clipped gradient before noise, ``noisy`` the
    released vector.  Returns signal/noise norms plus — when both vectors
    carry a direction — the noise-to-signal ratio, cosine similarity and
    angular deviation (radians) between the two.
    """
    clean = np.asarray(clean, dtype=np.float64).ravel()
    noisy = np.asarray(noisy, dtype=np.float64).ravel()
    diff = noisy - clean
    signal_norm = float(clean @ clean) ** 0.5
    out = {
        "post_clip_norm": signal_norm,
        "noise_norm": float(diff @ diff) ** 0.5,
    }
    if signal_norm > 0.0:
        out["noise_to_signal"] = out["noise_norm"] / signal_norm
        noisy_norm = float(noisy @ noisy) ** 0.5
        if noisy_norm > 0.0:
            # Hot path: inline dot-product cosine, numerically identical to
            # repro.geometry.metrics.cosine_similarity (asserted by tests)
            # but without the matrix lifting and validation overhead.
            cos = float(clean @ noisy) / (signal_norm * noisy_norm)
            cos = min(1.0, max(-1.0, cos))
            out["cos_similarity"] = cos
            out["angular_deviation"] = float(np.arccos(cos))
    return out


def record_clipping(recorder, norms, threshold: float) -> None:
    """Record :func:`clip_diagnostics` into ``recorder`` (no-op when None)."""
    if recorder is None:
        return
    note_backend(recorder)
    for name, value in clip_diagnostics(norms, threshold).items():
        recorder.record(name, value)


def record_release(
    recorder,
    clean,
    noisy,
    *,
    sigma: float,
    sensitivity: float,
    extras: dict[str, float] | None = None,
) -> None:
    """Record :func:`release_diagnostics` plus mechanism parameters.

    ``extras`` lets optimizers attach scheme-specific quantities (e.g.
    GeoDP's magnitude/direction noise split).  No-op when ``recorder`` is
    ``None`` so call sites stay branch-free.
    """
    if recorder is None:
        return
    note_backend(recorder)
    for name, value in release_diagnostics(clean, noisy).items():
        recorder.record(name, value)
    recorder.record("sigma", sigma)
    recorder.record("sensitivity", sensitivity)
    for name, value in (extras or {}).items():
        recorder.record(name, value)
    recorder.increment("releases")
