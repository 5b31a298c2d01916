"""Table II: GeoDP vs DP on CNN / MNIST-like — test accuracy grid.

The paper's grid crosses {DP, GeoDP} x {two batch sizes, good/bad beta} x
{IS, SUR, AUTO-S, PSAC, SUR+PSAC} at sigma in {10, 1}.  The headline shape:
GeoDP(beta=0.1) > DP at both batch sizes; batch size helps GeoDP more than
DP; a too-large beta (0.5) collapses GeoDP; the optimisation techniques
stack on GeoDP exactly as they stack on DP.
"""

from __future__ import annotations

from repro.data.datasets import train_test_split
from repro.data.mnist_like import make_mnist_like
from repro.experiments.common import check_scale
from repro.experiments.training_grid import run_grid, standard_method_grid
from repro.models.cnn import build_cnn
from repro.utils.rng import as_rng
from repro.utils.tables import format_table

__all__ = ["run_table2", "format_table2"]

_PRESETS = {
    "smoke": {
        "n": 800,
        "size": 16,
        "channels": (2, 4),
        "batches": (32, 64),
        "iters": 150,
        "sigmas": (10.0, 1.0),
        "lr": 4.0,
    },
    "ci": {
        "n": 4000,
        "size": 28,
        "channels": (4, 8),
        "batches": (256, 512),
        "iters": 250,
        "sigmas": (10.0, 1.0),
        "lr": 4.0,
    },
    "paper": {
        "n": 60000,
        "size": 28,
        "channels": (8, 16),
        "batches": (8192, 16384),
        "iters": 400,
        "sigmas": (10.0, 1.0),
        "lr": 1.0,
    },
}

_CLIP = 0.1
_BETA_GOOD = 0.1
_BETA_BAD = 0.5


def run_table2(
    scale: str = "smoke",
    rng=None,
    *,
    checkpoint_dir=None,
    resume: bool = True,
    workers=1,
    grad_mode: str = "materialize",
) -> dict:
    """Run the Table II accuracy grid at the requested scale.

    ``checkpoint_dir`` enables fault-tolerant training: every grid cell
    snapshots its state there (one sub-directory per cell) and, with
    ``resume=True``, an interrupted grid picks up from the latest valid
    snapshots with bit-identical results (see :mod:`repro.checkpoint`).
    ``workers > 1`` trains the grid cells concurrently with bit-identical
    results (see :mod:`repro.runtime`); combined with ``checkpoint_dir`` a
    killed parallel run resumes only its unfinished cells.
    ``grad_mode="ghost"`` routes every non-IS cell through the
    ghost-clipping fast path (see
    :meth:`repro.core.pipeline.DpOptimizer.ghost_clipped_sum`).
    """
    check_scale(scale)
    cfg = _PRESETS[scale]
    rng = as_rng(rng)

    data = make_mnist_like(cfg["n"], rng, size=cfg["size"])
    train, test = train_test_split(data, rng=rng)

    def builder():
        return build_cnn(
            input_shape=(1, cfg["size"], cfg["size"]), channels=cfg["channels"], rng=0
        )

    methods = standard_method_grid(cfg["batches"][0], cfg["batches"][1], _BETA_GOOD, _BETA_BAD)
    result = run_grid(
        methods,
        builder,
        train,
        test,
        sigmas=cfg["sigmas"],
        iterations=cfg["iters"],
        learning_rate=cfg["lr"],
        clip_norm=_CLIP,
        rng=rng,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        workers=workers,
        grad_mode=grad_mode,
    )
    result["scale"] = scale
    result["dataset"] = "MNIST-like"
    result["model"] = "CNN"
    return result


def format_table2(result: dict) -> str:
    """Render the accuracy grid in the paper's table layout."""
    sigmas = result["sigmas"]
    headers = ["Method"] + [f"sigma={s:g}" for s in sigmas]
    rows = [
        [r["label"]] + [f"{r['accuracies'][s] * 100:.2f}%" for s in sigmas]
        for r in result["rows"]
    ]
    title = (
        f"Table II (scale={result['scale']}): {result['model']} on "
        f"{result['dataset']} (noise-free {result['noise_free'] * 100:.2f}%)"
    )
    return format_table(headers, rows, title=title)
