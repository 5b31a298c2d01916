"""Checkpoint/resume subsystem for fault-tolerant training.

Long DP training runs (the paper's Table II/III grids repeated across
epsilon, beta, C and learning rate) must survive interruption without
restarting — and for a *privacy* system, "survive" has a stricter meaning
than usual: the resumed run must spend exactly the privacy budget of an
uninterrupted run.  This package therefore snapshots *complete* training
state — model parameters, optimizer internals (momentum velocity, Adam
moments, lot size), accountant state (the accumulated RDP curve and step
history), every RNG bit-generator state, the training history, SUR
counters and telemetry — and restores it so that a run killed at
iteration ``k`` and resumed is **bit-identical** to one that never
stopped: same parameters, same losses, same noise draws, same final
epsilon.

Files are written atomically (write + fsync + rename) with a versioned
schema; corrupted or partial snapshots are detected and skipped on resume.

Usage through the trainer::

    trainer.train(1000, checkpoint_every=50, checkpoint_dir="run/ckpt")
    # ... process dies at iteration 730 ...
    # rebuild model/optimizer/trainer with the same seeds, then:
    trainer.train(1000, checkpoint_every=50, checkpoint_dir="run/ckpt")
    # resumes from snapshot 700 and finishes identically to an
    # uninterrupted 1000-iteration run

or from the CLI::

    python -m repro.experiments.cli table2 --checkpoint-dir run/ckpt --resume
"""

from repro.checkpoint.snapshot import (
    SCHEMA_VERSION,
    SnapshotError,
    latest_snapshot,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    save_snapshot,
    snapshot_path,
)
from repro.checkpoint.state import (
    capture_training_state,
    history_from_state,
    history_to_state,
    restore_training_state,
)

__all__ = [
    "SCHEMA_VERSION",
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
    "snapshot_path",
    "list_snapshots",
    "latest_snapshot",
    "prune_snapshots",
    "capture_training_state",
    "restore_training_state",
    "history_to_state",
    "history_from_state",
]
