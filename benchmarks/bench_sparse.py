"""Sparse embedding-scale DP training: speed scaling and exactness gates.

The sparse pipeline's claim is that step cost scales with the rows a lot
*touches*, not the table size: per-sample embedding gradients stay as
compacted ``(sample, row, value)`` triples, touched rows are clipped,
noised and updated in place, and untouched rows' DP cover noise is
deferred.  ``test_sparse_beats_dense`` pins the headline number — at a 1%
touch rate on a 100k-row table the sparse step must be at least 5x faster
than the dense ghost-path step (same model, same lot stream, same DP
release).  ``test_sparse_step_independent_of_vocab`` pins the asymptotic
shape: growing the table 5x at a fixed touched-row count must not grow
the sparse step proportionally.

The speed is not allowed to cost correctness:
``test_ledger_epsilon_parity`` replays dense and sparse release ledgers
to the same epsilon (1e-9), and ``test_lazy_matches_eager`` checks that a
lazy run's finalized parameters match the eager (flush-every-step)
reference to 1e-8 in ``"replay"`` noise mode.

``sparse_section()`` packages the dense/sparse step timings for
``run_all.py``'s ``BENCH_<n>.json`` archives, where a row of
``compare.py``'s table requires the sparse step to beat the dense one on
every archived run at touch rates up to 10%.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.geodp_adam import GeoDpAdamOptimizer
from repro.core.trainer import Trainer
from repro.data import make_click_log, train_test_split
from repro.models.text import build_text_classifier
from repro.privacy.accountant import RdpAccountant
from repro.privacy.ledger import ReleaseLedger, verify_ledger
from repro.sparse import SparseTrainer

pytestmark = pytest.mark.sparse

VOCAB = 100_000
DIM = 16
TOUCH_RATE = 0.01
BATCH = 50
MIN_SPEEDUP = 5.0


def _data(vocab: int, touch_rate: float, *, samples: int = 400, seed: int = 1):
    data = make_click_log(
        samples,
        rng=np.random.default_rng(seed),
        vocab_size=vocab,
        seq_length=20,
        touch_rate=touch_rate,
        padding_idx=0,
    )
    return train_test_split(data, rng=np.random.default_rng(3))


def _trainer(sparse: bool, train, vocab: int, *, scheme: str = "dp", ledger=None,
             lazy: bool = True, noise_mode: str = "aggregate", dim: int = DIM):
    model = build_text_classifier(
        vocab, 2, embedding_dim=dim, padding_idx=0, rng=np.random.default_rng(0)
    )
    kwargs = dict(
        learning_rate=0.5,
        clipping=1.0,
        noise_multiplier=0.7,
        rng=np.random.default_rng(2),
        grad_mode="sparse" if sparse else "ghost",
    )
    if ledger is not None:
        kwargs.update(
            ledger=ledger, accountant=RdpAccountant(), sample_rate=BATCH / len(train)
        )
    if scheme == "geodp":
        opt = GeoDpSgdOptimizer(beta=0.02, **kwargs)
    elif scheme == "geodp_adam":
        kwargs.pop("grad_mode")
        opt = GeoDpAdamOptimizer(
            beta=0.02, grad_mode="sparse" if sparse else "ghost", **kwargs
        )
    else:
        opt = DpSgdOptimizer(**kwargs)
    if sparse:
        trainer = SparseTrainer(
            model, opt, train, batch_size=BATCH, rng=np.random.default_rng(4),
            lazy=lazy, noise_mode=noise_mode, noise_seed=7,
        )
    else:
        trainer = Trainer(
            model, opt, train, batch_size=BATCH, rng=np.random.default_rng(4)
        )
    return trainer, opt


def _step_seconds(trainer, steps: int = 10) -> float:
    trainer.train(2)  # warm-up
    times = []
    for _ in range(steps):
        start = time.perf_counter()
        trainer.train(1)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def sparse_section(
    *, vocab: int = VOCAB, dim: int = DIM, touch_rate: float = TOUCH_RATE,
    steps: int = 10,
) -> dict:
    """Dense vs sparse step timings, as a ``BENCH_<n>.json`` section."""
    train, _ = _data(vocab, touch_rate)
    dense, _ = _trainer(False, train, vocab, dim=dim)
    sparse, _ = _trainer(True, train, vocab, dim=dim)
    return {
        "vocab_size": {"value": vocab, "unit": "count"},
        "dim": {"value": dim, "unit": "count"},
        "touch_rate": {"value": touch_rate, "unit": "ratio"},
        "dense_step_s": {"value": _step_seconds(dense, steps), "unit": "s"},
        "sparse_step_s": {"value": _step_seconds(sparse, steps), "unit": "s"},
    }


def test_sparse_beats_dense(report):
    """At a 1% touch rate on 100k rows the sparse step wins >= 5x."""
    section = sparse_section()
    dense = section["dense_step_s"]["value"]
    sparse = section["sparse_step_s"]["value"]
    speedup = dense / sparse
    report(
        "bench_sparse",
        f"sparse vs dense DP step (vocab={VOCAB}, dim={DIM}, touch={TOUCH_RATE:.0%})\n"
        f"dense  {dense * 1e3:8.2f} ms/step\n"
        f"sparse {sparse * 1e3:8.2f} ms/step\n"
        f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"sparse step only {speedup:.1f}x faster than dense "
        f"(required >= {MIN_SPEEDUP}x)"
    )


def test_sparse_step_independent_of_vocab():
    """5x the table at the same touched-row count: step cost must not follow.

    The *absolute* support (touchable rows) is pinned while the table
    grows from 20k to 100k rows, so a touched-rows-scaling step stays
    flat; anything proportional to ``vocab`` (dense noise, full-table
    scatter) would grow ~5x.  Threshold 3x leaves room for timing noise.
    """
    small_vocab, big_vocab = 20_000, 100_000
    support = 200  # absolute touchable rows, same for both tables
    times = {}
    for vocab in (small_vocab, big_vocab):
        train, _ = _data(vocab, support / vocab)
        trainer, _ = _trainer(True, train, vocab)
        times[vocab] = _step_seconds(trainer)
    assert times[big_vocab] <= 3.0 * times[small_vocab], (
        f"sparse step grew {times[big_vocab] / times[small_vocab]:.1f}x when "
        f"the table grew 5x at fixed touched rows"
    )


@pytest.mark.parametrize("scheme", ["dp", "geodp", "geodp_adam"])
def test_ledger_epsilon_parity(scheme):
    """Sparse and dense runs replay their ledgers to the same epsilon."""
    vocab = 2_000
    train, _ = _data(vocab, 0.05, samples=120)
    epsilons = {}
    for sparse in (False, True):
        ledger = ReleaseLedger()
        trainer, opt = _trainer(sparse, train, vocab, scheme=scheme, ledger=ledger)
        trainer.train(6)
        if sparse:
            trainer.finalize()
        verdict = verify_ledger(ledger, opt.accountant)
        assert verdict.ok
        epsilons[sparse] = verdict.replayed_epsilon
    assert abs(epsilons[False] - epsilons[True]) <= 1e-9


@pytest.mark.parametrize("scheme", ["dp", "geodp", "geodp_adam"])
def test_lazy_matches_eager(scheme):
    """Lazy deferral with replay noise finalizes to the eager parameters."""
    vocab = 2_000
    train, _ = _data(vocab, 0.05, samples=120)
    params = {}
    for lazy in (False, True):
        trainer, _ = _trainer(
            True, train, vocab, scheme=scheme, lazy=lazy, noise_mode="replay"
        )
        trainer.train(8)
        trainer.finalize()
        params[lazy] = trainer.model.get_params()
    assert np.max(np.abs(params[False] - params[True])) <= 1e-8
