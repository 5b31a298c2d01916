"""Sparse DP releases: touched-row updates plus deferred cover noise.

:meth:`repro.core.pipeline.DpOptimizer.release` hands a sparse step to its
mechanism, which calls one of the two functions here.  One sparse release
perturbs and applies, per step:

* the **dense block** (every non-embedding parameter) — exactly the dense
  mechanism, drawn from the optimizer's own RNG;
* the **touched rows** — the Gaussian mechanism adds noise from the
  counter-based row streams (:mod:`repro.sparse.noise`); the GeoDP
  mechanism perturbs the *active subvector* ``[dense, touched rows]``
  geometrically as one averaged gradient
  (:func:`repro.core.perturbation.perturb_geodp_active`);
* the **untouched rows** — nothing now; their Gaussian cover noise
  (scale ``sigma * C / denominator`` per coordinate per step) is owed in
  the :class:`~repro.sparse.noise.LazyRowNoise` bookkeeping and
  materialized when the row is next touched or at checkpoint / finalize.

Accounting is untouched: each sparse step is one subsampled release with
the same ``(sigma, sensitivity, sample_rate)`` as its dense counterpart,
accounted and ledgered by the same pipeline stage as a dense step, so
:func:`~repro.privacy.ledger.verify_ledger` replays to the same epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.perturbation import perturb_geodp_active
from repro.sparse.noise import LazyRowNoise
from repro.telemetry.diagnostics import record_release
from repro.telemetry.tracing import joint_span

__all__ = ["SparseRelease", "gaussian_sparse_release", "geodp_sparse_release"]


@dataclass
class SparseRelease:
    """Everything a sparse release needs about the table."""

    #: Sorted unique embedding rows touched by this lot, ``(R,)``.
    rows: np.ndarray
    #: Clip-scaled gradient sum restricted to those rows, ``(R, dim)``.
    row_sum: np.ndarray
    #: Deferred-noise bookkeeping for the whole table.
    lazy: LazyRowNoise
    #: The ``(vocab, dim)`` embedding table, updated *in place* row by row.
    table: np.ndarray


def gaussian_sparse_release(optimizer, sparse: SparseRelease, denominator: int) -> None:
    """DP-SGD's touched-row update: row-stream noise + in-place row step.

    ``table[rows] -= lr * (row_sum + sigma*C*noise) / denominator``.  The
    noise comes from the deterministic per-row counter streams, never the
    optimizer's RNG, so the dense block's draws are identical with or
    without the sparse path.  ``materialize`` also folds in any noise the
    rows were still owed from untouched steps — same constants, one fused
    application.  Rows bypass momentum (they have no persistent velocity;
    documented in ``docs/sparse.md``).
    """
    sparse.lazy.advance()
    scale = optimizer.noise_multiplier * optimizer.clipping.sensitivity()
    if sparse.rows.size == 0:
        return
    if scale > 0:
        noise = sparse.lazy.materialize(sparse.rows)
        noisy_rows = (sparse.row_sum + scale * noise) / denominator
    else:
        sparse.lazy.mark(sparse.rows)
        noisy_rows = sparse.row_sum / denominator
    sparse.table[sparse.rows] -= optimizer.learning_rate * noisy_rows


def geodp_sparse_release(
    optimizer, dense_sum: np.ndarray, sparse: SparseRelease, denominator: int
) -> np.ndarray:
    """GeoDP's sparse release: geometric noise on the active subvector.

    The dense average and the touched-row averages are perturbed *jointly*
    (magnitude + direction, Algorithm 1) — geometrically they are one
    averaged gradient whose untouched coordinates are exactly zero.  The
    touched rows are then applied in place and marked noised-through-now;
    untouched rows accrue deferred Gaussian cover noise as usual.  Returns
    the noisy dense average for the caller's descent.  Draws from the
    optimizer's RNG exactly once per release, like the dense path.
    """
    dense_avg = dense_sum / denominator
    row_avg = sparse.row_sum / denominator
    recorder, tracer = optimizer.recorder, optimizer.tracer
    with joint_span(recorder, tracer, "noise"):
        noisy_dense, noisy_rows = perturb_geodp_active(
            dense_avg,
            row_avg,
            optimizer.clipping.sensitivity(),
            optimizer.noise_multiplier,
            denominator,
            optimizer.beta,
            optimizer.rng,
            sensitivity_mode=optimizer.sensitivity_mode,
            tracer=tracer,
        )
    sparse.lazy.advance()
    sparse.lazy.mark(sparse.rows)
    if sparse.rows.size:
        sparse.table[sparse.rows] -= optimizer.learning_rate * noisy_rows
    if recorder is not None:
        record_release(
            recorder,
            np.concatenate([dense_avg, row_avg.ravel()]),
            np.concatenate([noisy_dense, noisy_rows.ravel()]),
            sigma=optimizer.noise_multiplier,
            sensitivity=optimizer.clipping.sensitivity(),
            extras={"sparse_touched_rows": float(sparse.rows.size)},
        )
    return noisy_dense
