"""One DP release pipeline shared by every DP optimizer.

A DP step is always the same four stages — clip, noise, account, update —
and the paper's method changes only the second one (Algorithm 1 steps
6-9 replace the Gaussian release with a spherical one).  Each DP optimizer
in :mod:`repro.core` is therefore one configuration of three independent
choices:

* a **clipping strategy** — any
  :class:`~repro.privacy.clipping.ClippingStrategy`;
* a **mechanism** — :class:`GaussianMechanism` (classic DP-SGD, Eq. 8) or
  :class:`GeoDpMechanism` (GeoDP, Algorithm 1);
* an **update rule** — :class:`~repro.core.sgd.SgdOptimizer` (optionally
  with momentum) or :class:`~repro.core.sgd.AdamOptimizer`, applied to the
  released gradient.  The update is post-processing of the release, so the
  privacy analysis never sees it.

A concrete optimizer lists them as bases in that order, e.g.
``class GeoDpAdamOptimizer(GeoDpMechanism, DpOptimizer, AdamOptimizer)``:
the mechanism supplies ``_perturb`` / ``_release_sparse`` / ledger meta,
:class:`DpOptimizer` everything shared, and the update rule's ``step`` /
``state_dict`` are reached through ``super()``.

Every step enters through :meth:`DpOptimizer.release`, which takes a
clipped sum, the denominator to average it over and optional sparse rows,
and returns the noisy gradient: ``step`` (materialized per-sample
gradients, averaged over their rows), ``step_presummed`` (the trainer's
chunk loop) and ``step_sparse`` (:class:`repro.sparse.SparseTrainer`)
apply the update rule to it.  The trainers pass their lot size ``B``, so
a Poisson lot of any drawn size averages over ``B`` as Eq. 8 requires.

Telemetry observes instead of forking: instrumented and uninstrumented
runs execute the same arithmetic on the same workspace buffers and draw
the same random numbers.  Phase spans come from
:func:`~repro.telemetry.tracing.maybe_span` (a shared no-op context when no
tracer is attached), and release diagnostics read the buffers the release
itself used, under ``if self.recorder is not None``, before those buffers
return to the arena.
"""

from __future__ import annotations

import numpy as np

from repro.backend import workspace
from repro.core.perturbation import perturb_geodp
from repro.geometry.bounding import (
    delta_prime_upper_bound,
    direction_sensitivity,
    per_angle_sensitivity,
)
from repro.privacy.clipping import ClippingStrategy, FlatClipping
from repro.telemetry.diagnostics import record_clipping, record_release
from repro.telemetry.tracing import maybe_span
from repro.utils.rng import as_rng, get_rng_state, set_rng_state
from repro.utils.validation import check_matrix, check_positive, check_probability

__all__ = ["GRAD_MODES", "DpOptimizer", "GaussianMechanism", "GeoDpMechanism"]

#: How a trainer computes an optimizer's clipped sum (see ``grad_mode`` on
#: :class:`DpOptimizer`).  :class:`~repro.core.Trainer` drives the first
#: two; ``sparse`` is :class:`repro.sparse.SparseTrainer`'s.
GRAD_MODES = ("materialize", "ghost", "sparse")


class DpOptimizer:
    """Clip → noise → account → update, shared by every DP optimizer.

    Parameters
    ----------
    clipping:
        Either a clipping threshold ``C`` (float — flat clipping, Eq. 6) or
        any :class:`~repro.privacy.clipping.ClippingStrategy`.
    noise_multiplier:
        Noise multiplier ``sigma``; the Gaussian release's per-coordinate
        noise std of the summed gradient is ``sigma * sensitivity``.
    rng:
        Seed or generator of the noise stream.
    accountant / sample_rate:
        When both are given, every release records one subsampled Gaussian
        step with the accountant.  An accountant or a ledger without a
        ``sample_rate`` is refused: replay could not charge its releases.
    recorder:
        Optional :class:`~repro.telemetry.MetricsRecorder`.  Every release
        records clipping statistics (pre-clip norm, clipped fraction) and
        release geometry (noise-to-signal ratio, cosine similarity and
        angular deviation between the clean averaged gradient and the
        released one) plus the sigma and sensitivity used.
    tracer:
        Optional :class:`~repro.telemetry.tracing.Tracer`.  The clip and
        noise phases of every step become spans (nested under the trainer's
        lot span when the trainer attached the tracer).
    ledger:
        Optional :class:`~repro.privacy.ledger.ReleaseLedger`.  Every
        release appends one hash-chained entry recording sigma,
        sensitivity, sample rate and the accountant's ε-at-release,
        auditable with :func:`~repro.privacy.ledger.verify_ledger`.
    grad_mode:
        How the trainer computes the clipped sum.  ``"materialize"``
        (default) computes the full ``(B, P)`` per-sample gradient matrix;
        ``"ghost"`` routes through :meth:`ghost_clipped_sum`, which clips
        and sums without materializing it — O(P) gradient memory, same DP
        release (see ``docs/performance.md``); ``"sparse"`` keeps an
        embedding's rows sparse and is driven by
        :class:`repro.sparse.SparseTrainer`.

    The recorder and tracer are pure observers: they never touch the RNG
    or the arithmetic, so instrumented runs are bit-identical to
    uninstrumented ones.
    """

    def __init__(
        self,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        rng=None,
        *,
        accountant=None,
        sample_rate: float | None = None,
        recorder=None,
        tracer=None,
        ledger=None,
        grad_mode: str = "materialize",
    ):
        self.recorder = recorder
        self.tracer = tracer
        self.ledger = ledger
        if grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}")
        self.grad_mode = grad_mode
        if isinstance(clipping, (int, float)):
            clipping = FlatClipping(float(clipping))
        self.clipping = clipping
        self.noise_multiplier = check_positive(
            "noise_multiplier", noise_multiplier, strict=False
        )
        self.rng = as_rng(rng)
        self.accountant = accountant
        if sample_rate is not None:
            sample_rate = check_probability("sample_rate", sample_rate)
        self.sample_rate = sample_rate
        if sample_rate is None and (accountant is not None or ledger is not None):
            raise ValueError(
                "sample_rate is required when an accountant or a ledger is attached"
            )
        #: Noisy averaged gradient of the most recent release (diagnostics).
        self.last_noisy_gradient: np.ndarray | None = None
        #: Callables run at the start of every release, before any noise is
        #: drawn (e.g. the hook of :func:`~repro.core.schedules.schedule`).
        self.release_hooks: list = []
        #: Releases made so far (checkpointed; schedules are indexed by it).
        self.releases = 0

    # ------------------------------------------------------------------ clip
    def clipped_sum(self, per_sample_grads) -> np.ndarray:
        """Clip per-sample gradients and sum them (the accumulation unit)."""
        grads = check_matrix("per_sample_grads", per_sample_grads)
        if grads.shape[0] == 0:
            return np.zeros(grads.shape[1])
        with maybe_span(self.tracer, "clip"):
            clipped, norms = self.clipping.clip_with_norms(grads)
            summed = clipped.sum(axis=0)
        if self.recorder is not None:
            record_clipping(self.recorder, norms, self.clipping.sensitivity())
        return summed

    def ghost_clipped_sum(self, model, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Clip-and-sum one batch via the ghost fast path (no ``(B, P)``).

        Returns ``(per-sample losses (B,), clipped gradient sum (P,))``.  The
        clipping strategy's factors come from the ghost norms, and an
        attached recorder gets the same clipping diagnostics as on the
        materialized path plus ``ghost_clipped_sums`` / ``ghost_samples``
        counters.
        """
        with maybe_span(self.tracer, "ghost"):
            losses, summed, norms = model.loss_and_clipped_grad_sum(
                x, y, self.clipping
            )
        if self.recorder is not None:
            record_clipping(self.recorder, norms, self.clipping.sensitivity())
            self.recorder.increment("ghost_clipped_sums")
            self.recorder.increment("ghost_samples", len(norms))
        return losses, summed

    # ----------------------------------------------------------------- noise
    def noisy_gradient_presummed(self, clipped_sum: np.ndarray, denominator: int) -> np.ndarray:
        """Noise an already clipped-and-summed gradient into its average
        over ``denominator`` samples."""
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator}")
        workspace.note_release_shape(self, clipped_sum.shape)
        return self._perturb(clipped_sum, denominator)

    def noisy_gradient(self, per_sample_grads) -> np.ndarray:
        """Clip, aggregate and noise per-sample gradients into one release."""
        grads = check_matrix("per_sample_grads", per_sample_grads)
        return self.noisy_gradient_presummed(self.clipped_sum(grads), grads.shape[0])

    # --------------------------------------------------------------- account
    def _account_release(self) -> None:
        """Record one DP release with the accountant and the ledger.

        The ledger entry is appended *after* the accountant step so its
        ε-at-release includes the release itself — exactly what a replay
        through a fresh accountant reproduces.
        """
        if self.accountant is not None:
            self.accountant.step(max(self.noise_multiplier, 1e-12), self.sample_rate)
        if self.ledger is not None:
            self.ledger.record_release(
                mechanism=self.ledger_mechanism,
                sigma=self.noise_multiplier,
                sensitivity=self.clipping.sensitivity(),
                sample_rate=self.sample_rate,
                accountant=self.accountant,
                meta=self._ledger_meta(),
            )
        if self.recorder is not None:
            # Per-mechanism release counter for the live metric surface
            # (release mix across gaussian/geodp under one registry).
            self.recorder.increment(f"releases_{self.ledger_mechanism}")

    # ----------------------------------------------------------- entry point
    def release(self, clipped_sum: np.ndarray, denominator: int, sparse=None) -> np.ndarray:
        """The single release entry point: noise and account one step.

        ``clipped_sum`` holds clipped per-sample gradients, and the release
        averages it over ``denominator`` (the lot size ``B``, fixed even
        when a Poisson lot drew another count).  With ``sparse`` (a
        :class:`repro.sparse.release.SparseRelease`), ``clipped_sum`` covers
        only the dense block and the touched embedding rows are released
        and updated in place.  One accountant step and one ledger entry
        either way.  Returns the noisy averaged (dense) gradient.
        """
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator}")
        for hook in self.release_hooks:
            hook()
        if sparse is None:
            noisy = self.noisy_gradient_presummed(clipped_sum, denominator)
        else:
            noisy = self._release_sparse(clipped_sum, sparse, denominator)
        self.last_noisy_gradient = noisy
        self._account_release()
        self.releases += 1
        return noisy

    def step(self, params: np.ndarray, per_sample_grads) -> np.ndarray:
        """One DP update from materialized per-sample gradients."""
        summed = self.clipped_sum(per_sample_grads)
        return super().step(params, self.release(summed, len(per_sample_grads)))

    def step_presummed(self, params: np.ndarray, clipped_sum: np.ndarray, denominator: int) -> np.ndarray:
        """One DP update from an accumulated clipped sum (the trainer's lots)."""
        return super().step(params, self.release(clipped_sum, denominator))

    def step_sparse(self, params: np.ndarray, dense_sum: np.ndarray, denominator: int, sparse) -> np.ndarray:
        """One sparse DP update: dense block plus touched embedding rows.

        Embedding rows take a plain SGD step at ``learning_rate`` (they keep
        no momentum or Adam moments; see ``docs/sparse.md``).  Returns the
        new dense params.
        """
        return super().step(params, self.release(dense_sum, denominator, sparse))

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> dict:
        """Mutable optimizer state for checkpointing (see :mod:`repro.checkpoint`).

        Covers everything a resumed run needs to continue bit-identically:
        the update rule's buffers (momentum velocity or Adam moments), the
        release count (a schedule's position), the noise stream's
        bit-generator state, and the nested accountant / ledger state.
        """
        state = super().state_dict()
        state["releases"] = int(self.releases)
        state["rng"] = get_rng_state(self.rng)
        state["accountant"] = (
            None if self.accountant is None else self.accountant.state_dict()
        )
        state["ledger"] = None if self.ledger is None else self.ledger.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        super().load_state_dict(state)
        # Older snapshots carry no release count (and a lot size the
        # trainer now owns, which is ignored).
        self.releases = int(state.get("releases", 0))
        set_rng_state(self.rng, state["rng"])
        if state["accountant"] is not None:
            if self.accountant is None:
                raise ValueError("snapshot has accountant state but none is attached")
            self.accountant.load_state_dict(state["accountant"])
        # Snapshots from before the ledger existed have no "ledger" key.
        if state.get("ledger") is not None:
            if self.ledger is None:
                raise ValueError("snapshot has ledger state but none is attached")
            self.ledger.load_state_dict(state["ledger"])

    def __repr__(self) -> str:
        meta = "".join(f", {key}={value!r}" for key, value in self._ledger_meta().items())
        return (
            f"{type(self).__name__}(lr={self.learning_rate}, "
            f"clipping={self.clipping!r}, sigma={self.noise_multiplier}{meta})"
        )


class GaussianMechanism:
    """Classic DP-SGD release (Eq. 8): ``(sum + N(0, sigma^2 C^2 I)) / B``."""

    #: Mechanism label written into ledger entries.
    ledger_mechanism = "gaussian"

    def _ledger_meta(self) -> dict:
        return {}

    def _perturb(self, clipped_sum: np.ndarray, denominator: int) -> np.ndarray:
        scale = self.noise_multiplier * self.clipping.sensitivity()
        with maybe_span(self.tracer, "noise"):
            if scale == 0:
                noisy = (clipped_sum + 0.0) / denominator
            else:
                # Workspace-pooled release: same RNG stream and bits as
                # ``(clipped_sum + rng.normal(0, scale, shape)) / denominator``
                # (``Generator.normal`` is ``0.0 + scale * z``), with zero
                # steady-state allocation.
                noisy = workspace.take(clipped_sum.shape)
                self.rng.standard_normal(out=noisy)
                noisy *= scale
                np.add(clipped_sum, noisy, out=noisy)
                noisy /= denominator
        if self.recorder is not None:
            record_release(
                self.recorder,
                clipped_sum / denominator,
                noisy,
                sigma=self.noise_multiplier,
                sensitivity=self.clipping.sensitivity(),
            )
        return noisy

    def _release_sparse(self, dense_sum: np.ndarray, sparse, denominator: int) -> np.ndarray:
        """Dense block through the dense release; touched rows from the
        counter-based row streams (:func:`repro.sparse.release.gaussian_sparse_release`)."""
        from repro.sparse import release

        noisy = self.noisy_gradient_presummed(dense_sum, denominator)
        release.gaussian_sparse_release(self, sparse, denominator)
        return noisy


class GeoDpMechanism:
    """GeoDP release (Algorithm 1 steps 6-9): spherical noise on the average.

    ``beta`` is the bounding factor fixing the direction sensitivity
    ``Delta theta = sqrt(d+2) * beta * pi``; ``sensitivity_mode`` selects
    the direction-noise calibration (``"total"`` — Algorithm 1 as stated —
    or ``"per_angle"``; see :func:`repro.core.perturbation.perturb_geodp_batch`).
    """

    #: Mechanism label written into ledger entries.
    ledger_mechanism = "geodp"

    def __init__(self, beta: float, sensitivity_mode: str):
        self.beta = check_probability("beta", beta)
        if sensitivity_mode not in ("total", "per_angle"):
            raise ValueError(
                f"sensitivity_mode must be 'total' or 'per_angle', got {sensitivity_mode!r}"
            )
        self.sensitivity_mode = sensitivity_mode

    def direction_sensitivity(self, d: int) -> float:
        """``Delta theta`` for a ``d``-dimensional gradient at this ``beta``."""
        return direction_sensitivity(d, self.beta)

    @property
    def delta_prime(self) -> float:
        """Lemma 2's bound on the extra delta of the direction release."""
        return delta_prime_upper_bound(self.beta)

    def _ledger_meta(self) -> dict:
        """Beta and calibration mode, so a ledger audit sees the mechanism."""
        return {"beta": self.beta, "sensitivity_mode": self.sensitivity_mode}

    def _noise_split(self, d: int, denominator: int) -> dict[str, float]:
        """GeoDP's spherical noise split: magnitude vs direction noise std."""
        sigma = self.noise_multiplier
        if self.sensitivity_mode == "total":
            dir_sens = direction_sensitivity(d, self.beta)
        else:
            dir_sens = float(np.mean(per_angle_sensitivity(d, self.beta)))
        return {
            "geodp_beta": self.beta,
            "geodp_magnitude_noise_scale": sigma * self.clipping.sensitivity() / denominator,
            "geodp_direction_noise_scale": sigma * dir_sens / denominator,
        }

    def _perturb(self, clipped_sum: np.ndarray, denominator: int) -> np.ndarray:
        # Workspace-pooled average (bit-identical to ``clipped_sum /
        # denominator``), recycled once the diagnostics have read it.
        avg = workspace.take(clipped_sum.shape)
        np.divide(clipped_sum, denominator, out=avg)
        with maybe_span(self.tracer, "noise"):
            noisy = perturb_geodp(
                avg,
                self.clipping.sensitivity(),
                self.noise_multiplier,
                denominator,
                self.beta,
                self.rng,
                clip=False,  # per-sample clipping already bounded the average
                sensitivity_mode=self.sensitivity_mode,
                tracer=self.tracer,
            )
        if self.recorder is not None:
            record_release(
                self.recorder,
                avg,
                noisy,
                sigma=self.noise_multiplier,
                sensitivity=self.clipping.sensitivity(),
                extras=self._noise_split(avg.size, denominator),
            )
        workspace.give(avg)
        return noisy

    def _release_sparse(self, dense_sum: np.ndarray, sparse, denominator: int) -> np.ndarray:
        """Geometric noise on the active subvector ``[dense, touched rows]``
        (:func:`repro.sparse.release.geodp_sparse_release`)."""
        from repro.sparse import release

        return release.geodp_sparse_release(self, dense_sum, sparse, denominator)
