"""Embedding-scale DP training driver: touched rows only, noise deferred.

:class:`SparseTrainer` is a :class:`repro.core.Trainer` whose lot step
never round-trips the *full* flat parameter vector, which is
O(vocab * dim) no matter how few embedding rows a lot touches.  It keeps
the table out of the optimizer's parameter vector entirely:

* the **dense block** (the head: every layer after the embedding at
  layer 0) goes through the optimizer's ``step_sparse`` exactly like a
  dense DP step — same noise draws from the optimizer's RNG, same
  accountant update, same ledger entry;
* **touched rows** are clipped, summed, noised and updated *in place* on
  ``embedding.weight``;
* **untouched rows** owe Gaussian cover noise (every row must be perturbed
  every release or the noise pattern leaks which rows were accessed); the
  :class:`~repro.sparse.noise.LazyRowNoise` bookkeeping defers it until
  the row is next touched or a barrier (``flush`` / ``evaluate`` /
  ``state_dict`` / ``finalize``) materializes it.

Before each forward pass the lot's rows are *caught up*: any noise they
were owed from steps where they sat untouched is applied first, so the
forward pass reads the same weights an eager run (``lazy=False``, which
flushes every step) would see.  In ``"replay"`` noise mode the deferred
values are bit-identical to the eager run's, so lazy and eager trajectories
match to floating-point summation order.

Everything else — the run/epoch/lot loop, history, ``eval_every``,
checkpoint/resume (each checkpoint is a flush barrier), per-lot
telemetry and attaching the sinks to the optimizer — is the base
:class:`~repro.core.Trainer`'s.

Constraints: deferred noise drawn at step ``t + k`` must use the same
``lr * sigma * C / B`` the release at step ``t`` promised.  Every clipping
strategy's bound ``C`` is constant, construction rejects release hooks
(e.g. a noise schedule), and every release averages over the fixed lot
size ``B``.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import DpOptimizer
from repro.core.trainer import Trainer
from repro.data.sampling import minibatch_indices
from repro.nn.model import Sequential
from repro.sparse.noise import LazyRowNoise
from repro.sparse.pipeline import (
    find_embedding,
    get_dense_params,
    set_dense_params,
    sparse_clipped_sums,
)
from repro.sparse.release import SparseRelease
from repro.telemetry.tracing import maybe_span

__all__ = ["SparseTrainer"]


class SparseTrainer(Trainer):
    """Iteration-driven sparse DP trainer for embedding-scale models.

    Parameters
    ----------
    model:
        A :class:`repro.nn.Sequential` whose only :class:`repro.nn.Embedding`
        is layer 0, followed by at least one layer (the dense head).
    optimizer:
        Any DP optimizer of :mod:`repro.core` built with
        ``grad_mode="sparse"`` (they all release sparse steps through
        :meth:`~repro.core.pipeline.DpOptimizer.step_sparse`).
    lazy:
        ``True`` (default) defers untouched-row noise; ``False`` flushes
        every step — the eager reference the lazy path must match.
    noise_mode:
        ``"replay"`` (exact, bit-identical to eager) or ``"aggregate"``
        (one draw per touched row per step — the fast mode).
    noise_seed:
        Seed of the counter-based row noise streams.  Drawn from ``rng``
        when omitted; must be shared for eager-vs-lazy comparisons.

    ``batch_size``, ``test_data``, ``rng``, ``telemetry`` and ``tracer`` are
    the base :class:`~repro.core.Trainer`'s.
    """

    grad_modes = ("sparse",)

    def __init__(
        self,
        model,
        optimizer,
        train_data,
        *,
        batch_size: int,
        test_data=None,
        rng=None,
        lazy: bool = True,
        noise_mode: str = "replay",
        noise_seed: int | None = None,
        telemetry=None,
        tracer=None,
    ):
        if not isinstance(optimizer, DpOptimizer):
            raise ValueError(
                f"{type(optimizer).__name__} has no step_sparse; sparse training "
                "needs a DP optimizer from repro.core"
            )
        if optimizer.release_hooks:
            raise ValueError(
                "optimizer has release hooks (e.g. a noise schedule); "
                "deferred row noise requires a constant lr * sigma"
            )
        super().__init__(
            model,
            optimizer,
            train_data,
            batch_size=batch_size,
            test_data=test_data,
            rng=rng,
            telemetry=telemetry,
            tracer=tracer,
        )
        self.embedding = find_embedding(model)
        #: Every layer after the embedding, sharing the model's layer objects
        #: and loss: the dense block the optimizer's ``step_sparse`` descends on.
        self.head = Sequential(model.layers[1:], model.loss)
        self.lazy = bool(lazy)
        if noise_seed is None:
            noise_seed = int(self.rng.integers(0, 2**63 - 1))
        self.lazy_noise = LazyRowNoise(
            self.embedding.vocab_size,
            self.embedding.dim,
            seed=noise_seed,
            mode=noise_mode,
        )

    # ------------------------------------------------------------------
    # noise plumbing

    def _cover_scale(self) -> float:
        """Weight-space scale of one step of deferred row noise."""
        return (
            self.optimizer.learning_rate
            * self.optimizer.noise_multiplier
            * self.optimizer.clipping.sensitivity()
            / self.batch_size
        )

    def _batch_rows(self, x) -> np.ndarray:
        """Sorted unique embedding rows a batch will read in its forward."""
        tokens = np.round(np.asarray(x)).astype(np.int64)
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.embedding.vocab_size):
            raise ValueError(
                f"token ids must be in [0, {self.embedding.vocab_size}), "
                f"got range [{tokens.min()}, {tokens.max()}]"
            )
        return np.unique(tokens.ravel())

    def _catch_up(self, rows: np.ndarray) -> None:
        """Apply noise owed to ``rows`` so the forward sees eager weights."""
        scale = self._cover_scale()
        if scale == 0.0 or rows.size == 0:
            return
        noise = self.lazy_noise.materialize(rows)
        self.embedding.weight[rows] -= scale * noise

    def flush(self) -> None:
        """Materialize all deferred noise (the checkpoint / finalize barrier).

        After a flush the table is noised through the current step exactly
        as an eager run's would be.  In ``"replay"`` mode a flush never
        changes later noise values (each ``(row, step)`` draw is a pure
        function of its key); in ``"aggregate"`` mode it re-keys future
        deferred draws, which is distribution-preserving but not
        replay-stable.
        """
        scale = self._cover_scale()
        if scale == 0.0:
            self.lazy_noise.mark(np.arange(self.lazy_noise.num_rows))
            return
        rows, noise = self.lazy_noise.flush()
        if rows.size:
            self.embedding.weight[rows] -= scale * noise

    # ------------------------------------------------------------------
    # training

    def _lot(self) -> float:
        """Draw one lot and take one sparse step on its touched rows."""
        with maybe_span(self.tracer, "sample"):
            idx = minibatch_indices(len(self.train_data), self.batch_size, self.rng)
            x, y = self.train_data.batch(idx)
        return self._step(x, y)

    def _step(self, x, y) -> float:
        rows = self._batch_rows(x)
        self._catch_up(rows)
        losses, dense_sum, srows, row_sum = sparse_clipped_sums(
            self.optimizer, self.embedding, self.head, x, y
        )
        release = SparseRelease(
            rows=srows,
            row_sum=row_sum,
            lazy=self.lazy_noise,
            table=self.embedding.weight,
        )
        with maybe_span(self.tracer, "step"):
            dense = get_dense_params(self.head)
            new_dense = self.optimizer.step_sparse(
                dense, dense_sum, self.batch_size, release
            )
            set_dense_params(self.head, new_dense)
        if not self.lazy:
            self.flush()
        return float(np.mean(losses))

    # ------------------------------------------------------------------
    # barriers

    def evaluate(self) -> float:
        """Test accuracy on the fully-noised table (flushes first)."""
        self.flush()
        return super().evaluate()

    def finalize(self):
        """Flush deferred noise and return the model, ready for release."""
        self.flush()
        return self.model

    #: Snapshots also carry the deferred row noise (see :meth:`state_dict`).
    snapshot_keys = Trainer.snapshot_keys | {"lazy"}

    def state_dict(self) -> dict:
        """Checkpoint: flushes first so the snapshot holds an eager table."""
        self.flush()
        return {**super().state_dict(), "lazy": self.lazy_noise.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`."""
        super().load_state_dict(state)
        self.lazy_noise.load_state_dict(state["lazy"])

    def __repr__(self) -> str:
        return (
            f"SparseTrainer(batch_size={self.batch_size}, "
            f"lazy={self.lazy}, noise={self.lazy_noise.mode!r}, "
            f"table={self.embedding.vocab_size}x{self.embedding.dim})"
        )
