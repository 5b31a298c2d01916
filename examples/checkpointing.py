"""Checkpointing a private training run and resuming it.

Long DP training runs need restartable state: the model parameters, the
training history, and — crucially — the privacy spent so far, so the
resumed run keeps accounting from where it left off rather than resetting
epsilon to zero.

The ``repro.checkpoint`` subsystem snapshots the *complete* training state
(parameters, optimizer and clipping state, accountant, RNG streams) and
resumes a killed run bit-identically to one that was never interrupted.

Usage::

    python examples/checkpointing.py
"""

import tempfile
from pathlib import Path

from repro import DpSgdOptimizer, RdpAccountant, Trainer
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression

SIGMA, CLIP, BATCH = 1.0, 0.1, 128
PHASE_ITERS = 100


def make_trainer(model, accountant, train, test, sample_rate, seed):
    optimizer = DpSgdOptimizer(
        4.0, CLIP, SIGMA, rng=seed, accountant=accountant, sample_rate=sample_rate
    )
    return Trainer(model, optimizer, train, test_data=test, batch_size=BATCH, rng=seed)


def main():
    data = make_mnist_like(2000, rng=0, size=16)
    train, test = train_test_split(data, rng=0)
    sample_rate = BATCH / len(train)
    ckpt_dir = Path(tempfile.mkdtemp(prefix="repro_ckpt_")) / "snapshots"

    def fresh_run():
        model = build_logistic_regression((1, 16, 16), rng=0)
        accountant = RdpAccountant()
        trainer = make_trainer(model, accountant, train, test, sample_rate, seed=1)
        return model, accountant, trainer

    model_a, acc_a, trainer_a = fresh_run()
    uninterrupted = trainer_a.train(2 * PHASE_ITERS)

    _, _, trainer_b = fresh_run()
    trainer_b.train(  # "crashes" at PHASE_ITERS + 30; snapshots every 25
        PHASE_ITERS + 30, checkpoint_every=25, checkpoint_dir=ckpt_dir
    )
    model_c, acc_c, trainer_c = fresh_run()  # new process: rebuild, same seeds
    resumed = trainer_c.train(
        2 * PHASE_ITERS, checkpoint_every=25, checkpoint_dir=ckpt_dir
    )

    identical = (
        (model_c.get_params() == model_a.get_params()).all()
        and resumed.losses == uninterrupted.losses
        and acc_c.get_epsilon(1e-5) == acc_a.get_epsilon(1e-5)
    )
    print(
        f"killed at iteration {PHASE_ITERS + 30}, resumed from snapshot, "
        f"finished {resumed.iterations} iterations at epsilon "
        f"{acc_c.get_epsilon(1e-5):.3f}; bit-identical to the uninterrupted "
        f"run: {identical}"
    )


if __name__ == "__main__":
    main()
