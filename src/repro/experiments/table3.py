"""Table III: GeoDP vs DP on ResNet / CIFAR-like — test accuracy grid.

Same 15-row method grid as Table II, at the paper's sigma in {0.1, 0.01}
and beta in {1, 0.1}.  Expected shape: GeoDP >= DP even at beta = 1 under
these small multipliers (the unbiased-direction effect), with beta = 0.1
strictly better; techniques stack as in Table II.
"""

from __future__ import annotations

from repro.data.cifar_like import make_cifar_like
from repro.data.datasets import train_test_split
from repro.experiments.common import check_scale
from repro.experiments.training_grid import run_grid, standard_method_grid
from repro.models.resnet import build_resnet
from repro.utils.rng import as_rng
from repro.utils.tables import format_table

__all__ = ["run_table3", "format_table3"]

_PRESETS = {
    "smoke": {
        "n": 800,
        "size": 16,
        "base_channels": 4,
        "batches": (32, 64),
        "iters": 150,
        "sigmas": (0.1, 0.01),
        "lr": 2.0,
    },
    "ci": {
        "n": 3000,
        "size": 32,
        "base_channels": 8,
        "batches": (256, 512),
        "iters": 250,
        "sigmas": (0.1, 0.01),
        "lr": 2.0,
    },
    "paper": {
        "n": 50000,
        "size": 32,
        "base_channels": 16,
        "batches": (8192, 16384),
        "iters": 400,
        "sigmas": (0.1, 0.01),
        "lr": 0.5,
    },
}

_CLIP = 0.1
_BETA_GOOD = 0.1
_BETA_BAD = 1.0  # Table III's second beta column is beta = 1


def run_table3(
    scale: str = "smoke",
    rng=None,
    *,
    checkpoint_dir=None,
    resume: bool = True,
    workers=1,
    grad_mode: str = "materialize",
) -> dict:
    """Run the Table III accuracy grid at the requested scale.

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

    data = make_cifar_like(cfg["n"], rng, size=cfg["size"])
    train, test = train_test_split(data, rng=rng)

    def builder():
        return build_resnet(
            input_shape=(3, cfg["size"], cfg["size"]),
            base_channels=cfg["base_channels"],
            rng=0,
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
    result["dataset"] = "CIFAR-like"
    result["model"] = "ResNet"
    return result


def format_table3(result: dict) -> str:
    """Render the accuracy grid in the paper's table layout."""
    sigmas = result["sigmas"]
    headers = ["Method"] + [f"sigma={s:g}" for s in sigmas]
    rows = [
        [r["label"]] + [f"{r['accuracies'][s] * 100:.2f}%" for s in sigmas]
        for r in result["rows"]
    ]
    title = (
        f"Table III (scale={result['scale']}): {result['model']} on "
        f"{result['dataset']} (noise-free {result['noise_free'] * 100:.2f}%)"
    )
    return format_table(headers, rows, title=title)
