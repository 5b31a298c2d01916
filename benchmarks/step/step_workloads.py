"""The four DP training workloads timed by ``bench_step.py``.

Each workload pins one configuration of the paper's system and attaches an
``RdpAccountant`` and a ``ReleaseLedger``, as a real user would.  They are
chosen so that every layer an optimisation is likely to touch dominates the
step on one workload and is nearly absent on another:

* ``lr_mnist_geodp_b64`` — a tiny model, so the GeoDP release, the RNG
  draws, the ledger and the accountant are about half of the step;
* ``cnn_mnist_dpsgd_b128`` — per-sample conv/pool backward plus the
  ``(B, P)`` flatten dominate; neither spherical nor ghost kernels run;
* ``resnet_cifar_geodp_b16`` — the ghost clipped sum dominates, and
  ``ResidualBlock`` has no specialised ``accumulate_clipped``, so its
  generic fallback re-runs the block's backward;
* ``clicklog_sparse_geodp`` — the sparse touched-rows path: GeoDP on the
  active subvector, lazy cover noise, no dense model layers.

The reason for each workload, one line, is in ``BENCHMARK.json``.  Every
data, model, sampler and noise seed derives from the run seed, so the same
seed gives the same inputs and the same loss trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.trainer import Trainer
from repro.data import make_cifar_like, make_click_log, make_mnist_like
from repro.models.cnn import build_cnn
from repro.models.logistic import build_logistic_regression
from repro.models.resnet import build_resnet
from repro.models.text import build_text_classifier
from repro.privacy.accountant import RdpAccountant
from repro.privacy.ledger import ReleaseLedger
from repro.sparse import SparseTrainer

__all__ = ["Run", "Workload", "WORKLOADS"]

# Independent random streams per run seed.
_DATA, _MODEL, _NOISE, _SAMPLER, _ROWS = range(5)

CLICKLOG_VOCAB = 100_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass
class Run:
    """One freshly built training run."""

    trainer: Trainer | SparseTrainer
    model: object
    optimizer: object
    accountant: RdpAccountant
    ledger: ReleaseLedger


@dataclass(frozen=True)
class Workload:
    """One pinned configuration: how to make its data and build its run."""

    name: str
    #: Nominal seconds per step (2-CPU x86-64 machine, one thread).  It only
    #: turns ``--seconds`` into a fixed step count per round, so the same
    #: ``--seconds`` times the same steps on every commit.
    step_s: float
    #: Timed steps of the single ``--smoke`` round.
    smoke_steps: int
    make_data: Callable[[int], object]
    build: Callable[[object, int], Run]


def _dp_kwargs(seed: int, batch_size: int, n: int) -> tuple[dict, RdpAccountant, ReleaseLedger]:
    accountant = RdpAccountant()
    ledger = ReleaseLedger()
    kwargs = dict(
        rng=_rng(seed, _NOISE),
        accountant=accountant,
        sample_rate=batch_size / n,
        ledger=ledger,
    )
    return kwargs, accountant, ledger


def _dense_run(model, optimizer_cls, params: dict, data, seed: int, batch_size: int) -> Run:
    kwargs, accountant, ledger = _dp_kwargs(seed, batch_size, len(data))
    optimizer = optimizer_cls(**params, **kwargs)
    trainer = Trainer(model, optimizer, data, batch_size=batch_size, rng=_rng(seed, _SAMPLER))
    return Run(trainer, model, optimizer, accountant, ledger)


def _lr_run(data, seed: int) -> Run:
    model = build_logistic_regression((1, 28, 28), 10, rng=_rng(seed, _MODEL))
    params = dict(
        learning_rate=4.0,
        clipping=0.1,
        noise_multiplier=1.0,
        beta=0.1,
        sensitivity_mode="per_angle",
        grad_mode="ghost",
    )
    return _dense_run(model, GeoDpSgdOptimizer, params, data, seed, 64)


def _cnn_run(data, seed: int) -> Run:
    model = build_cnn((1, 28, 28), 10, channels=(8, 16), rng=_rng(seed, _MODEL))
    params = dict(
        learning_rate=4.0, clipping=0.1, noise_multiplier=1.0, grad_mode="materialize"
    )
    return _dense_run(model, DpSgdOptimizer, params, data, seed, 128)


def _resnet_run(data, seed: int) -> Run:
    model = build_resnet((3, 32, 32), 10, base_channels=8, rng=_rng(seed, _MODEL))
    params = dict(
        learning_rate=1.0, clipping=0.1, noise_multiplier=1.0, beta=0.1, grad_mode="ghost"
    )
    return _dense_run(model, GeoDpSgdOptimizer, params, data, seed, 16)


def _clicklog_run(data, seed: int) -> Run:
    model = build_text_classifier(
        CLICKLOG_VOCAB, 2, embedding_dim=16, padding_idx=0, rng=_rng(seed, _MODEL)
    )
    kwargs, accountant, ledger = _dp_kwargs(seed, 64, len(data))
    optimizer = GeoDpSgdOptimizer(
        learning_rate=0.5,
        clipping=1.0,
        noise_multiplier=1.0,
        beta=0.1,
        grad_mode="sparse",
        **kwargs,
    )
    trainer = SparseTrainer(
        model,
        optimizer,
        data,
        batch_size=64,
        rng=_rng(seed, _SAMPLER),
        noise_mode="aggregate",
        noise_seed=int(_rng(seed, _ROWS).integers(2**63 - 1)),
    )
    return Run(trainer, model, optimizer, accountant, ledger)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lr_mnist_geodp_b64",
            step_s=0.00086,
            smoke_steps=40,
            make_data=lambda seed: make_mnist_like(2048, _rng(seed, _DATA), size=28),
            build=_lr_run,
        ),
        Workload(
            name="cnn_mnist_dpsgd_b128",
            step_s=0.165,
            smoke_steps=2,
            make_data=lambda seed: make_mnist_like(2048, _rng(seed, _DATA), size=28),
            build=_cnn_run,
        ),
        Workload(
            name="resnet_cifar_geodp_b16",
            step_s=0.21,
            smoke_steps=2,
            make_data=lambda seed: make_cifar_like(1024, _rng(seed, _DATA), size=32),
            build=_resnet_run,
        ),
        Workload(
            name="clicklog_sparse_geodp",
            step_s=0.0014,
            smoke_steps=40,
            make_data=lambda seed: make_click_log(
                2000,
                _rng(seed, _DATA),
                vocab_size=CLICKLOG_VOCAB,
                seq_length=20,
                touch_rate=0.01,
                padding_idx=0,
            ),
            build=_clicklog_run,
        ),
    )
}
