"""Federated training with per-client private gradient releases.

The paper names federated learning as the extension target for GeoDP
(§VII, ref [69]).  :class:`FederatedTrainer` simulates cross-silo federated
averaging: the global model is broadcast, each sampled client computes
per-sample gradients on a local batch and *privatises its release*
(classic DP or GeoDP), and the server averages the releases.  Each client
release goes through its own DP optimizer, i.e. the same clip → noise →
account pipeline (:mod:`repro.core.pipeline`) as centralised training.
Privacy is record-level per client; each client carries its own RDP
accountant, stepped only on the rounds it participates in.
"""

from __future__ import annotations

import numpy as np

from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.privacy.accountant import RdpAccountant
from repro.privacy.clipping import ClippingStrategy, FlatClipping
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import check_positive, check_probability

__all__ = ["FederatedTrainer"]


class FederatedTrainer:
    """Federated averaging with DP/GeoDP client releases.

    Parameters
    ----------
    model:
        Global model (a :class:`repro.nn.Sequential`); updated in place.
    client_shards:
        List of :class:`repro.data.Dataset`, one per client (disjoint).
    scheme:
        ``"none"`` (no privacy), ``"dp"`` or ``"geodp"``.
    local_batch_size:
        Per-client batch size per round.
    clients_per_round:
        Number of clients sampled each round (default: all).
    beta / sensitivity_mode:
        GeoDP parameters (ignored for other schemes).
    """

    def __init__(
        self,
        model,
        client_shards,
        *,
        scheme: str = "geodp",
        learning_rate: float = 1.0,
        clipping: float | ClippingStrategy = 0.1,
        noise_multiplier: float = 1.0,
        local_batch_size: int = 32,
        clients_per_round: int | None = None,
        beta: float = 0.1,
        sensitivity_mode: str = "per_angle",
        rng=None,
    ):
        if scheme not in ("none", "dp", "geodp"):
            raise ValueError(f"scheme must be none/dp/geodp, got {scheme!r}")
        if not client_shards:
            raise ValueError("need at least one client shard")
        self.model = model
        self.shards = list(client_shards)
        self.scheme = scheme
        self.learning_rate = check_positive("learning_rate", learning_rate)
        if isinstance(clipping, (int, float)):
            clipping = FlatClipping(float(clipping))
        self.clipping = clipping
        self.noise_multiplier = check_positive(
            "noise_multiplier", noise_multiplier, strict=False
        )
        self.local_batch_size = local_batch_size
        num_clients = len(self.shards)
        self.clients_per_round = (
            num_clients if clients_per_round is None else clients_per_round
        )
        if not 1 <= self.clients_per_round <= num_clients:
            raise ValueError(
                f"clients_per_round must be in [1, {num_clients}], got "
                f"{self.clients_per_round}"
            )
        self.beta = check_probability("beta", beta)
        self.sensitivity_mode = sensitivity_mode
        self.rng = as_rng(rng)
        #: One accountant per client (stepped on participation only).
        self.accountants = [RdpAccountant() for _ in self.shards]
        self._clients = [
            self._client_optimizer(shard, client_rng, accountant)
            for shard, client_rng, accountant in zip(
                self.shards, spawn_rngs(self.rng, num_clients), self.accountants
            )
        ]
        self.rounds_run = 0

    def _client_optimizer(self, shard, rng, accountant):
        """The DP optimizer that clips, noises and accounts one client's
        releases (sigma 0 and no accountant for ``scheme="none"``).  The
        server applies the update, so the client learning rate is unused."""
        batch_size = min(self.local_batch_size, len(shard))
        common = dict(
            learning_rate=self.learning_rate,
            clipping=self.clipping,
            rng=rng,
            sample_rate=min(batch_size / len(shard), 1.0),
        )
        if self.scheme == "none":
            return DpSgdOptimizer(noise_multiplier=0.0, **common)
        common.update(noise_multiplier=self.noise_multiplier, accountant=accountant)
        if self.scheme == "dp":
            return DpSgdOptimizer(**common)
        return GeoDpSgdOptimizer(
            beta=self.beta, sensitivity_mode=self.sensitivity_mode, **common
        )

    # ------------------------------------------------------------- internals
    def _client_release(self, client: int, params: np.ndarray) -> np.ndarray:
        shard = self.shards[client]
        optimizer = self._clients[client]
        batch_size = min(self.local_batch_size, len(shard))
        idx = optimizer.rng.choice(len(shard), size=batch_size, replace=False)
        x, y = shard.batch(idx)

        self.model.set_params(params)
        _, per_sample = self.model.loss_and_per_sample_gradients(x, y)
        return optimizer.release(optimizer.clipped_sum(per_sample), len(per_sample))

    # --------------------------------------------------------------- public
    def round(self) -> np.ndarray:
        """Run one federated round; returns the aggregated update direction."""
        params = self.model.get_params()
        chosen = self.rng.choice(
            len(self.shards), size=self.clients_per_round, replace=False
        )
        updates = [self._client_release(c, params) for c in chosen]
        aggregate = np.mean(updates, axis=0)
        self.model.set_params(params - self.learning_rate * aggregate)
        self.rounds_run += 1
        return aggregate

    def train(self, num_rounds: int) -> list[float]:
        """Run ``num_rounds`` rounds; returns the aggregate-norm trace."""
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        norms = []
        for _ in range(num_rounds):
            norms.append(float(np.linalg.norm(self.round())))
        return norms

    def client_epsilons(self, delta: float) -> list[float]:
        """Per-client epsilon spent so far at ``delta``."""
        return [acc.get_epsilon(delta) for acc in self.accountants]
