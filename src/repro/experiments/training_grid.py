"""Shared harness for the Table II / Table III training grids.

Each table row is a :class:`MethodSpec` — a perturbation scheme (DP or
GeoDP), a batch size, a bounding factor, a clipping rule, and the optional
IS / SUR techniques.  :func:`run_grid` trains one model per (row, sigma)
cell and reports test accuracy, which is exactly the paper's table format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.techniques import ImportanceSampling, SelectiveUpdateRelease
from repro.core.trainer import Trainer
from repro.privacy.clipping import AutoSClipping, FlatClipping, PsacClipping

__all__ = ["MethodSpec", "cell_checkpoint_dir", "run_grid", "run_method", "standard_method_grid"]


@dataclass(frozen=True)
class MethodSpec:
    """One table row: perturbation scheme + batch size + techniques."""

    label: str
    scheme: str  # "dp" | "geodp"
    batch_size: int
    beta: float | None = None
    clipping: str = "flat"  # "flat" | "autos" | "psac"
    use_is: bool = False
    use_sur: bool = False

    def __post_init__(self):
        if self.scheme not in ("dp", "geodp"):
            raise ValueError(f"scheme must be 'dp' or 'geodp', got {self.scheme!r}")
        if self.scheme == "geodp" and self.beta is None:
            raise ValueError("geodp rows require beta")
        if self.clipping not in ("flat", "autos", "psac"):
            raise ValueError(f"unknown clipping {self.clipping!r}")


def _make_clipping(kind: str, clip_norm: float):
    if kind == "flat":
        return FlatClipping(clip_norm)
    if kind == "autos":
        return AutoSClipping(clip_norm)
    return PsacClipping(clip_norm)


def _make_optimizer(
    spec: MethodSpec, sigma: float, lr: float, clip_norm: float, rng, grad_mode: str
):
    clipping = _make_clipping(spec.clipping, clip_norm)
    if spec.scheme == "dp":
        return DpSgdOptimizer(lr, clipping, sigma, rng=rng, grad_mode=grad_mode)
    return GeoDpSgdOptimizer(
        lr, clipping, sigma, beta=spec.beta, rng=rng, sensitivity_mode="per_angle",
        grad_mode=grad_mode,
    )


def cell_checkpoint_dir(checkpoint_dir, label: str, sigma: float) -> Path:
    """Per-cell snapshot directory: one sub-directory per (method, sigma)."""
    slug = re.sub(r"[^A-Za-z0-9.=+-]+", "_", label).strip("_")
    return Path(checkpoint_dir) / f"{slug}-sigma{sigma:g}"


def run_method(
    spec: MethodSpec,
    model_builder,
    train,
    test,
    *,
    sigma: float,
    iterations: int,
    learning_rate: float,
    clip_norm: float,
    rng,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume: bool = True,
    grad_mode: str = "materialize",
    telemetry=None,
    tracer=None,
) -> float:
    """Train one model under ``spec``; returns final test accuracy.

    ``grad_mode="ghost"`` routes the DP gradient computation through the
    ghost-clipping fast path; rows using importance sampling need the
    materialized per-sample gradients and stay on ``"materialize"``.
    ``telemetry`` / ``tracer`` instrument the training run (per-iteration
    diagnostics and the span tree of ``docs/observability.md``); neither
    touches any random stream, so instrumented accuracies are unchanged.
    """
    model = model_builder()
    optimizer = _make_optimizer(
        spec, sigma, learning_rate, clip_norm, rng,
        "materialize" if spec.use_is else grad_mode,
    )
    importance = ImportanceSampling(clip_norm) if spec.use_is else None
    sur = SelectiveUpdateRelease(threshold=0.0, noise_std=0.01, rng=rng) if spec.use_sur else None
    trainer = Trainer(
        model,
        optimizer,
        train,
        test_data=test,
        batch_size=min(spec.batch_size, len(train)),
        rng=rng,
        importance_sampling=importance,
        sur=sur,
        telemetry=telemetry,
        tracer=tracer,
    )
    history = trainer.train(
        iterations,
        eval_every=iterations,
        checkpoint_every=checkpoint_every if checkpoint_dir is not None else 0,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    return history.final_accuracy


def standard_method_grid(
    batch_small: int, batch_large: int, beta_good: float, beta_bad: float
) -> list[MethodSpec]:
    """The 15-row method grid of Tables II and III."""
    bl = batch_large
    return [
        MethodSpec(f"DP (B={batch_small})", "dp", batch_small),
        MethodSpec(f"DP (B={bl})", "dp", bl),
        MethodSpec(f"DP+IS (B={bl})", "dp", bl, use_is=True),
        MethodSpec(f"DP+SUR (B={bl})", "dp", bl, use_sur=True),
        MethodSpec(f"DP+AUTO-S (B={bl})", "dp", bl, clipping="autos"),
        MethodSpec(f"DP+PSAC (B={bl})", "dp", bl, clipping="psac"),
        MethodSpec(f"DP+SUR+PSAC (B={bl})", "dp", bl, clipping="psac", use_sur=True),
        MethodSpec(f"GeoDP (B={batch_small},beta={beta_good})", "geodp", batch_small, beta_good),
        MethodSpec(f"GeoDP (B={bl},beta={beta_good})", "geodp", bl, beta_good),
        MethodSpec(f"GeoDP (B={batch_small},beta={beta_bad})", "geodp", batch_small, beta_bad),
        MethodSpec(f"GeoDP+IS (B={bl},beta={beta_good})", "geodp", bl, beta_good, use_is=True),
        MethodSpec(f"GeoDP+SUR (B={bl},beta={beta_good})", "geodp", bl, beta_good, use_sur=True),
        MethodSpec(
            f"GeoDP+AUTO-S (B={bl},beta={beta_good})", "geodp", bl, beta_good, clipping="autos"
        ),
        MethodSpec(
            f"GeoDP+PSAC (B={bl},beta={beta_good})", "geodp", bl, beta_good, clipping="psac"
        ),
        MethodSpec(
            f"GeoDP+SUR+PSAC (B={bl},beta={beta_good})",
            "geodp",
            bl,
            beta_good,
            clipping="psac",
            use_sur=True,
        ),
    ]


def run_grid(
    methods: list[MethodSpec],
    model_builder,
    train,
    test,
    *,
    sigmas: tuple[float, ...],
    iterations: int,
    learning_rate: float,
    clip_norm: float,
    rng,
    checkpoint_dir=None,
    checkpoint_every: int = 50,
    resume: bool = True,
    workers=1,
    telemetry=None,
    tracer=None,
    ship_telemetry: bool = False,
    grad_mode: str = "materialize",
) -> dict:
    """Run every (method, sigma) cell plus the noise-free reference.

    With ``checkpoint_dir`` set, every cell checkpoints its training state
    into its own sub-directory every ``checkpoint_every`` iterations, and
    (unless ``resume=False``) resumes from the latest valid snapshot — an
    interrupted grid re-run skips finished work inside each cell and
    produces bit-identical accuracies.  The per-cell RNGs are spawned
    deterministically from the master seed, so re-running with the same
    seed reconstructs each cell exactly as the interrupted run built it.

    ``workers > 1`` trains the cells concurrently in forked worker
    processes (:func:`repro.runtime.run_cells`).  Cell seeds are assigned
    by cell index before anything runs, so the grid is bit-identical for
    any worker count; combined with ``checkpoint_dir`` the per-cell
    snapshot directories make a killed parallel run resume only its
    unfinished cells.  ``telemetry`` optionally receives the pool's
    ``runtime_*`` progress events.

    ``ship_telemetry=True`` additionally instruments every cell's training
    with fresh per-cell recorders/tracers that travel back from the
    workers and merge into ``telemetry`` / ``tracer`` in cell order
    (:mod:`repro.runtime.shipback`): the merged telemetry is identical for
    any worker count (in its deterministic projection), and each cell's
    spans land on a track named after the cell key.

    ``grad_mode="ghost"`` runs every cell's DP training through the
    ghost-clipping fast path (results are equal to the default within
    floating-point tolerance, not bit-identical; IS rows stay
    materialized).  Any mode a grid cell's :class:`Trainer` does not drive
    is refused before the first cell runs.
    """
    from repro.runtime.scheduler import make_cells, run_cells
    from repro.runtime.shipback import job_recorder, job_tracer

    if grad_mode not in Trainer.grad_modes:
        raise ValueError(
            f"grad_mode must be one of {Trainer.grad_modes}, got {grad_mode!r}"
        )

    def cell_dir(label: str, sigma: float):
        if checkpoint_dir is None:
            return None
        return cell_checkpoint_dir(checkpoint_dir, label, sigma)

    # Cell 0 is the noise-free reference (the paper quotes it in the table
    # caption); the private (method, sigma) cells follow in row-major
    # order.  Seeds attach to this fixed ordering, never to completion
    # order — the invariant behind workers-independent results.
    payloads = [(None, 0.0)] + [(spec, sigma) for spec in methods for sigma in sigmas]
    keys = ["noise-free-reference"] + [
        f"{spec.label}@sigma={sigma:g}" for spec in methods for sigma in sigmas
    ]
    cells = make_cells(payloads, keys=keys, rng=rng)
    ref_batch = min(max(spec.batch_size for spec in methods), len(train))

    def execute(cell):
        spec, sigma = cell.payload
        # Under ship_telemetry the scheduler installs fresh per-cell
        # instruments around this call; otherwise both are None and the
        # cell trains unobserved, exactly as before.
        cell_telemetry, cell_tracer = job_recorder(), job_tracer()
        if spec is None:
            # The private rows are clipping-limited, so the fair reference
            # is clipped SGD at the same learning rate — DP-SGD, sigma = 0.
            model = model_builder()
            ref_dir = cell_dir("noise-free-reference", 0.0)
            trainer = Trainer(
                model,
                DpSgdOptimizer(learning_rate, clip_norm, 0.0, rng=cell.rng),
                train,
                test_data=test,
                batch_size=ref_batch,
                rng=cell.rng,
                telemetry=cell_telemetry,
                tracer=cell_tracer,
            )
            return trainer.train(
                iterations,
                eval_every=iterations,
                checkpoint_every=checkpoint_every if ref_dir is not None else 0,
                checkpoint_dir=ref_dir,
                resume=resume,
            ).final_accuracy
        return run_method(
            spec,
            model_builder,
            train,
            test,
            sigma=sigma,
            iterations=iterations,
            learning_rate=learning_rate,
            clip_norm=clip_norm,
            rng=cell.rng,
            checkpoint_dir=cell_dir(spec.label, sigma),
            checkpoint_every=checkpoint_every,
            resume=resume,
            grad_mode=grad_mode,
            telemetry=cell_telemetry,
            tracer=cell_tracer,
        )

    accuracies = run_cells(
        execute,
        cells,
        workers=workers,
        telemetry=telemetry,
        tracer=tracer,
        ship_telemetry=ship_telemetry,
    )
    noise_free = accuracies[0]
    rows = []
    position = 1
    for spec in methods:
        accs = {}
        for sigma in sigmas:
            accs[sigma] = accuracies[position]
            position += 1
        rows.append({"label": spec.label, "accuracies": accs})
    return {"noise_free": noise_free, "sigmas": sigmas, "rows": rows}
