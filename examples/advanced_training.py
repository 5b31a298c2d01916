"""Advanced private-training features in one pipeline.

Combines the production-scale machinery the library ships beyond the basic
loop:

* **Poisson sampling** with a fixed lot size (the sampling the RDP/PLD
  amplification analysis actually assumes),
* **gradient accumulation** (microbatching) so huge logical batches fit in
  memory — how the paper's B = 16384 runs are executed at `paper` scale,
* a **decaying noise-multiplier schedule** (§IV's practice of lowering the
  noise near convergence),
* the **PLD accountant** (numerical composition, the paper's ref [53]) next
  to the RDP accountant for the same run.

Usage::

    python examples/advanced_training.py
"""

from repro.core import DpSgdOptimizer, LinearDecay, Trainer, schedule
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.privacy import PldAccountant, RdpAccountant
from repro.utils import format_table

SIGMA0, SIGMA1 = 4.0, 1.0
CLIP, BATCH, ITERS = 0.1, 128, 150


def main():
    data = make_mnist_like(2000, rng=0, size=16)
    train, test = train_test_split(data, rng=0)
    sample_rate = BATCH / len(train)

    rdp = RdpAccountant()
    optimizer = schedule(
        DpSgdOptimizer(4.0, CLIP, SIGMA0, rng=1, accountant=rdp, sample_rate=sample_rate),
        noise_multiplier=LinearDecay(SIGMA0, SIGMA1, ITERS),
    )

    model = build_logistic_regression((1, 16, 16), rng=0)
    trainer = Trainer(
        model,
        optimizer,
        train,
        test_data=test,
        batch_size=BATCH,
        rng=2,
        sampling="poisson",     # every release still averages over BATCH
        microbatch_size=32,     # 4 accumulation chunks per logical batch
    )
    history = trainer.train(ITERS, eval_every=ITERS)

    # Account the same run with PLD at the *initial* (worst-case) sigma for
    # a like-for-like comparison of the two accountants.
    pld = PldAccountant(SIGMA1, sample_rate)  # pessimistic: final sigma
    pld.step(ITERS)

    print(
        format_table(
            ["metric", "value"],
            [
                ["final train-batch loss", history.final_loss],
                ["test accuracy", history.final_accuracy],
                ["epsilon (RDP, heterogeneous sigmas)", rdp.get_epsilon(1e-5)],
                [f"epsilon (PLD at sigma={SIGMA1:g} throughout)", pld.get_epsilon(1e-5)],
            ],
            title=(
                f"Poisson + accumulation + noise decay {SIGMA0:g}->{SIGMA1:g}, "
                f"{ITERS} iterations, lot {BATCH}"
            ),
        )
    )
    print(
        "\nNote: the RDP accountant composes each step at its scheduled "
        "sigma; the PLD bound shown assumes the loudest (final) sigma for "
        "every step, hence it is an upper bound on the same run."
    )


if __name__ == "__main__":
    main()
