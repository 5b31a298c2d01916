"""Telemetry trace demo: instrumented DP-SGD vs GeoDP training runs.

Trains the paper's logistic-regression workload twice at equal privacy
budget — once with classic DP-SGD, once with GeoDP — with a
:class:`~repro.telemetry.MetricsRecorder` attached to each run, then
reports the per-step geometric diagnostics side by side: clipped fraction,
noise-to-signal ratio and, centrally, the mean angular deviation between
the true averaged gradient and the released noisy gradient.  This is the
paper's Fig. 1 / Theorem 2 claim made directly observable on a live
training run rather than inferred from final loss.

Each run carries the full observability stack of ``docs/observability.md``:
a span :class:`~repro.telemetry.Tracer`, an
:class:`~repro.privacy.RdpAccountant` and a hash-chained
:class:`~repro.privacy.ReleaseLedger`, so the comparison also reports the
spent ε and the ledger's replay-verification verdict.  With a
``telemetry=`` path (CLI: ``--telemetry out.jsonl``) both runs are
exported to one JSONL trace file (run labels ``dpsgd`` and ``geodp``) that
round-trips through :func:`repro.telemetry.load_run_bundles` and feeds the
``repro report`` subcommand.
"""

from __future__ import annotations

import numpy as np

from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.trainer import Trainer
from repro.data.datasets import train_test_split
from repro.data.mnist_like import make_mnist_like
from repro.experiments.common import check_scale
from repro.models.logistic import build_logistic_regression
from repro.privacy.accountant import RdpAccountant
from repro.privacy.ledger import ReleaseLedger, verify_ledger
from repro.telemetry import (
    MetricsRecorder,
    RunBundle,
    Tracer,
    export_trace,
    metric_summary,
    summarize,
)
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.tables import format_table

__all__ = ["run_trace", "format_trace"]

# Training experiments use GeoDP's per_angle calibration with rescaled beta,
# matching fig5 (see EXPERIMENTS.md on the sensitivity-mode discrepancy).
_PRESETS = {
    "smoke": {"n": 800, "size": 12, "iters": 60, "batch": 128, "beta": 0.1},
    "ci": {"n": 2000, "size": 16, "iters": 150, "batch": 256, "beta": 0.1},
    "paper": {"n": 60000, "size": 28, "iters": 350, "batch": 2048, "beta": 1.0},
}

_CLIP = 0.1  # the paper fixes C = 0.1 throughout (§VI-A)
_SIGMA = 1.0
_LR = 4.0

#: Diagnostics compared across schemes in the report table.
_COMPARED = ("loss", "clipped_fraction", "noise_to_signal", "angular_deviation")


def run_trace(scale: str = "smoke", rng=None, telemetry=None) -> dict:
    """Run both instrumented trainings; optionally export a JSONL trace.

    Returns the two run bundles (recorder + tracer + ledger each) plus the
    configuration used; ``result["recorders"]`` keeps the recorder-only
    view.  ``telemetry`` is a destination path for the combined JSONL
    trace (or ``None``).  Instrumentation never touches a random stream,
    so the training trajectories are identical to the uninstrumented runs.
    """
    check_scale(scale)
    cfg = _PRESETS[scale]
    rng = as_rng(rng)
    data_rng, opt_rng, train_rng = spawn_rngs(rng, 3)
    data = make_mnist_like(cfg["n"], data_rng, size=cfg["size"])
    train, test = train_test_split(data, rng=data_rng)
    sample_rate = min(cfg["batch"], len(train)) / len(train)

    # Both optimizers consume identical seed material so the comparison is
    # equal-budget *and* equal-randomness (same batches, fresh noise).
    opt_seed = int(opt_rng.integers(2**31))
    train_seed = int(train_rng.integers(2**31))

    def _run(make_optimizer) -> RunBundle:
        recorder = MetricsRecorder()
        tracer = Tracer(granularity="phase")
        ledger = ReleaseLedger()
        optimizer = make_optimizer(
            accountant=RdpAccountant(),
            sample_rate=sample_rate,
            ledger=ledger,
        )
        model = build_logistic_regression((1, cfg["size"], cfg["size"]), rng=0)
        trainer = Trainer(
            model,
            optimizer,
            train,
            test_data=test,
            batch_size=cfg["batch"],
            rng=train_seed,
            telemetry=recorder,
            tracer=tracer,
        )
        trainer.train(cfg["iters"], eval_every=cfg["iters"])
        tracer.close()
        return RunBundle(recorder, tracer=tracer, ledger=ledger)

    bundles = {
        "dpsgd": _run(
            lambda **dp: DpSgdOptimizer(_LR, _CLIP, _SIGMA, rng=opt_seed, **dp)
        ),
        "geodp": _run(
            lambda **dp: GeoDpSgdOptimizer(
                _LR,
                _CLIP,
                _SIGMA,
                beta=cfg["beta"],
                rng=opt_seed,
                sensitivity_mode="per_angle",
                **dp,
            )
        ),
    }
    if telemetry is not None:
        for position, (run, bundle) in enumerate(bundles.items()):
            export_trace(
                telemetry,
                bundle.recorder,
                run=run,
                append=position > 0,
                tracer=bundle.tracer,
                ledger=bundle.ledger,
            )
    verifications = {
        run: verify_ledger(bundle.ledger, strict=False)
        for run, bundle in bundles.items()
    }
    return {
        "scale": scale,
        "config": dict(cfg, clip=_CLIP, sigma=_SIGMA, lr=_LR),
        "bundles": bundles,
        "recorders": {run: bundle.recorder for run, bundle in bundles.items()},
        "verifications": verifications,
        "telemetry_path": None if telemetry is None else str(telemetry),
    }


def format_trace(result: dict) -> str:
    """Comparison table, then each scheme's telemetry summary and phase time."""
    recorders = result["recorders"]
    rows = []
    for name, recorder in recorders.items():
        row = [name]
        for metric in _COMPARED:
            try:
                row.append(metric_summary(recorder, metric)["mean"])
            except KeyError:
                row.append(float("nan"))
        acc = recorder.values("test_accuracy")
        row.append(acc[-1] if acc else float("nan"))
        rows.append(row)
    cfg = result["config"]
    sections = [
        format_table(
            ["scheme", *(f"mean {m}" for m in _COMPARED), "final acc"],
            rows,
            title=(
                "Telemetry trace: DP-SGD vs GeoDP "
                f"(sigma={cfg['sigma']}, C={cfg['clip']}, B={cfg['batch']}, "
                f"beta={cfg['beta']}, {cfg['iters']} iters)"
            ),
        )
    ]
    dp = np.mean(recorders["dpsgd"].values("angular_deviation"))
    geo = np.mean(recorders["geodp"].values("angular_deviation"))
    sections.append(
        f"mean angular deviation: dpsgd={dp:.4f} rad, geodp={geo:.4f} rad "
        f"({'GeoDP preserves direction better' if geo <= dp else 'DP-SGD ahead'})"
    )
    for name, verification in result.get("verifications", {}).items():
        ledger = result["bundles"][name].ledger
        eps = verification.replayed_epsilon
        eps_text = "n/a" if eps is None else f"{eps:.4f}"
        sections.append(
            f"[{name}] privacy ledger: {len(ledger.entries)} releases, "
            f"epsilon={eps_text} at delta={ledger.delta:g} — {verification}"
        )
    if result["telemetry_path"]:
        sections.append(f"JSONL trace written to {result['telemetry_path']}")
    for name, recorder in recorders.items():
        sections.append(summarize(recorder, title=f"[{name}] telemetry summary"))
        phases = result["bundles"][name].tracer.phase_totals(level="phase")
        sections.append(
            format_table(
                ["phase", "seconds"],
                sorted(phases.items(), key=lambda kv: -kv[1]),
                title=f"[{name}] phase time",
            )
        )
    return "\n\n".join(sections)
