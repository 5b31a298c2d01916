"""Embedding-scale DP training driver: touched rows only, noise deferred.

The core :class:`repro.core.Trainer` round-trips the *full* flat parameter
vector every step, which is O(vocab * dim) no matter how few embedding
rows a lot touches.  :class:`SparseTrainer` instead keeps the table out of
the optimizer's parameter vector entirely:

* the **dense block** (every non-embedding parameter) goes through the
  optimizer's ``step_sparse`` exactly like a dense DP step — same noise
  draws from the optimizer's RNG, same accountant update, same ledger
  entry;
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

Constraints (validated at construction): the clipping strategy must
support ghost norms and have constant sensitivity — deferred noise drawn
at step ``t + k`` must use the same ``sigma * C`` the release at step
``t`` promised — and the aggregation denominator must be fixed across
steps (``lot_size`` or the fixed batch size).
"""

from __future__ import annotations

import numpy as np

from repro.core.trainer import TrainingHistory
from repro.data.sampling import minibatch_indices
from repro.sparse.noise import LazyRowNoise
from repro.sparse.pipeline import (
    find_embedding,
    get_dense_params,
    set_dense_params,
    sparse_clipped_sums,
)
from repro.sparse.release import SparseRelease
from repro.telemetry.tracing import joint_span
from repro.utils.rng import as_rng

__all__ = ["SparseTrainer"]


class SparseTrainer:
    """Iteration-driven sparse DP trainer for embedding-scale models.

    Parameters
    ----------
    model:
        A :class:`repro.nn.Sequential` containing exactly one
        :class:`repro.nn.Embedding` layer.
    optimizer:
        Any DP optimizer of :mod:`repro.core` (they all release sparse
        steps through :meth:`~repro.core.pipeline.DpOptimizer.step_sparse`).
    lazy:
        ``True`` (default) defers untouched-row noise; ``False`` flushes
        every step — the eager reference the lazy path must match.
    noise_mode:
        ``"replay"`` (exact, bit-identical to eager) or ``"aggregate"``
        (one draw per touched row per step — the fast mode).
    noise_seed:
        Seed of the counter-based row noise streams.  Drawn from ``rng``
        when omitted; must be shared for eager-vs-lazy comparisons.
    """

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
        if batch_size < 1 or batch_size > len(train_data):
            raise ValueError(
                f"batch_size must be in [1, {len(train_data)}], got {batch_size}"
            )
        if not hasattr(optimizer, "step_sparse"):
            raise ValueError(
                f"{type(optimizer).__name__} has no step_sparse; sparse training "
                "needs a DP optimizer from repro.core"
            )
        clipping = optimizer.clipping
        if not getattr(clipping, "supports_ghost", False):
            raise ValueError(
                f"{type(clipping).__name__} does not support ghost norms, "
                "which the sparse clip pass is built on"
            )
        if not getattr(clipping, "has_constant_sensitivity", False):
            raise ValueError(
                f"{type(clipping).__name__} adapts its sensitivity between "
                "steps; deferred row noise requires a constant sigma * C"
            )
        if getattr(optimizer, "release_hooks", None):
            raise ValueError(
                "optimizer has release hooks (e.g. a ScheduledOptimizer); "
                "deferred row noise requires a constant lr * sigma"
            )
        self.model = model
        self.optimizer = optimizer
        self.train_data = train_data
        self.test_data = test_data
        self.batch_size = batch_size
        self.rng = as_rng(rng)
        self.telemetry = telemetry
        self.tracer = tracer
        self.emb_index = find_embedding(model)
        self.embedding = model.layers[self.emb_index]
        # The deferred-noise scale must be a per-run constant, so the
        # denominator is pinned at construction: an explicit lot_size if the
        # optimizer has one, else the fixed minibatch size.
        lot_size = getattr(optimizer, "lot_size", None)
        self.denominator = int(lot_size) if lot_size is not None else int(batch_size)
        self.lazy = bool(lazy)
        if noise_seed is None:
            noise_seed = int(self.rng.integers(0, 2**63 - 1))
        self.lazy_noise = LazyRowNoise(
            self.embedding.vocab_size,
            self.embedding.dim,
            seed=noise_seed,
            mode=noise_mode,
        )
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    # noise plumbing

    def _cover_scale(self) -> float:
        """Weight-space scale of one step of deferred row noise."""
        return (
            self.optimizer.learning_rate
            * self.optimizer.noise_multiplier
            * self.optimizer.clipping.sensitivity()
            / self.denominator
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

    def _span(self, name: str):
        return joint_span(self.telemetry, self.tracer, name)

    def _step(self, x, y) -> float:
        rows = self._batch_rows(x)
        self._catch_up(rows)
        losses, dense_sum, srows, row_sum = sparse_clipped_sums(
            self.optimizer, self.model, self.emb_index, x, y
        )
        release = SparseRelease(
            rows=srows,
            row_sum=row_sum,
            lazy=self.lazy_noise,
            table=self.embedding.weight,
        )
        with self._span("step"):
            dense = get_dense_params(self.model, self.emb_index)
            new_dense = self.optimizer.step_sparse(
                dense, dense_sum, len(losses), release
            )
            set_dense_params(self.model, self.emb_index, new_dense)
        if not self.lazy:
            self.flush()
        return float(np.mean(losses)) if losses.size else float("nan")

    def train(self, num_iterations: int, *, eval_every: int = 0) -> TrainingHistory:
        """Run ``num_iterations`` sparse DP steps; returns the history.

        Deferred noise is *not* flushed at the end — call :meth:`finalize`
        (or :meth:`evaluate` / :meth:`state_dict`, which flush first) when
        the table is about to be read.
        """
        if num_iterations < 1:
            raise ValueError(f"num_iterations must be >= 1, got {num_iterations}")
        n = len(self.train_data)
        for _ in range(num_iterations):
            with self._span("sample"):
                idx = minibatch_indices(n, self.batch_size, self.rng)
                x, y = self.train_data.x[idx], self.train_data.y[idx]
            self.history.losses.append(self._step(x, y))
            self.history.iterations += 1
            if eval_every and self.history.iterations % eval_every == 0:
                self.history.test_accuracy.append(
                    (self.history.iterations, self.evaluate())
                )
        return self.history

    # ------------------------------------------------------------------
    # barriers

    def evaluate(self, *, max_samples: int | None = None, chunk: int = 512) -> float:
        """Test accuracy on the fully-noised table (flushes first)."""
        if self.test_data is None:
            raise ValueError("no test_data attached")
        self.flush()
        x, y = self.test_data.x, self.test_data.y
        if max_samples is not None:
            x, y = x[:max_samples], y[:max_samples]
        correct = 0
        for start in range(0, len(y), chunk):
            preds = self.model.predict(x[start : start + chunk])
            correct += int(np.sum(preds == y[start : start + chunk]))
        return correct / len(y)

    def finalize(self):
        """Flush deferred noise and return the model, ready for release."""
        self.flush()
        return self.model

    def state_dict(self) -> dict:
        """Checkpoint: flushes first so the snapshot is an eager table."""
        from repro.utils.rng import get_rng_state

        self.flush()
        return {
            "model": self.model.get_params(),
            "optimizer": self.optimizer.state_dict(),
            "lazy": self.lazy_noise.state_dict(),
            "rng": get_rng_state(self.rng),
            "iterations": self.history.iterations,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`."""
        from repro.utils.rng import set_rng_state

        self.model.set_params(np.asarray(state["model"]))
        self.optimizer.load_state_dict(state["optimizer"])
        self.lazy_noise.load_state_dict(state["lazy"])
        set_rng_state(self.rng, state["rng"])
        self.history.iterations = int(state["iterations"])

    def __repr__(self) -> str:
        return (
            f"SparseTrainer(batch_size={self.batch_size}, "
            f"lazy={self.lazy}, noise={self.lazy_noise.mode!r}, "
            f"table={self.embedding.vocab_size}x{self.embedding.dim})"
        )
