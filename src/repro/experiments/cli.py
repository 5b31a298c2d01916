"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments.cli fig1 --scale ci --seed 0
    python -m repro.experiments.cli all --scale smoke
    python -m repro.experiments.cli trace --telemetry out.jsonl
    python -m repro.experiments.cli table2 --checkpoint-dir ckpt --resume
    python -m repro.experiments.cli table2 --workers 4 --checkpoint-dir ckpt
    python -m repro.experiments.cli report out.jsonl --format markdown
    python -m repro.experiments.cli report out.jsonl --chrome out.trace.json
    python -m repro.experiments.cli list

Budget-server subcommands (see docs/service.md) route to
:mod:`repro.service.cli`::

    python -m repro.experiments.cli tenants add alice --state-dir d --epsilon 4
    python -m repro.experiments.cli submit --state-dir d --tenant alice \\
        --sigma 1.1 --sample-rate 0.01 --steps 100
    python -m repro.experiments.cli serve --state-dir d --workers 4
    python -m repro.experiments.cli tenants report --state-dir d
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.experiments import (
    format_fig1,
    format_fig3,
    format_fig4,
    format_fig5,
    format_fig6,
    format_concentration,
    format_mia,
    format_privacy_utility,
    format_sparse_scale,
    format_table2,
    format_table3,
    format_theory_validation,
    format_trace,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_concentration,
    run_mia,
    run_privacy_utility,
    run_sparse_scale,
    run_table2,
    run_table3,
    run_theory_validation,
    run_trace,
)

EXPERIMENTS = {
    "fig1": (run_fig1, format_fig1, "Figure 1: MSEs vs noise multiplier"),
    "fig3": (run_fig3, format_fig3, "Figure 3: MSE sweeps (sigma, d, B) x beta"),
    "fig4": (run_fig4, format_fig4, "Figure 4: bounding-factor effectiveness"),
    "fig5": (run_fig5, format_fig5, "Figure 5: LR training curves"),
    "fig6": (run_fig6, format_fig6, "Figure 6: perturbation runtime"),
    "table2": (run_table2, format_table2, "Table II: CNN / MNIST-like grid"),
    "table3": (run_table3, format_table3, "Table III: ResNet / CIFAR-like grid"),
    "theory": (
        run_theory_validation,
        format_theory_validation,
        "Numeric validation of Theorems 1-3 / Lemma 1 / Corollaries 1-2",
    ),
    "frontier": (
        run_privacy_utility,
        format_privacy_utility,
        "Extension: accuracy at calibrated equal-epsilon budgets",
    ),
    "mia": (
        run_mia,
        format_mia,
        "Extension: membership-inference advantage of each scheme",
    ),
    "concentration": (
        run_concentration,
        format_concentration,
        "Extension: Theorem 3's direction concentration on real gradients",
    ),
    "trace": (
        run_trace,
        format_trace,
        "Telemetry: instrumented DP-SGD vs GeoDP run (supports --telemetry)",
    ),
    "sparse": (
        run_sparse_scale,
        format_sparse_scale,
        "Extension: embedding-scale sparse vs dense DP training",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list", "report"],
        help=(
            "which experiment to run ('all' runs everything, 'list' describes "
            "them, 'report' renders a run report from an exported trace file)"
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        metavar="TRACE",
        help="trace file written by --telemetry ('report' only)",
    )
    parser.add_argument(
        "--format",
        dest="report_format",
        default="markdown",
        choices=("markdown", "json"),
        help="output format of the 'report' subcommand (default: markdown)",
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help=(
            "also write the trace's span tree as a Chrome trace-event JSON "
            "file, loadable in chrome://tracing or Perfetto ('report' only)"
        ),
    )
    parser.add_argument(
        "--alerts-only",
        action="store_true",
        help=(
            "restrict the 'report' output to the alert annotations "
            "extracted from each run's ledger"
        ),
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help=(
            "sample the experiment with the SIGPROF profiler and write "
            "collapsed stacks (flamegraph format) to PATH; with --chrome "
            "on 'report', profiles can be merged via the API"
        ),
    )
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=("smoke", "ci", "paper"),
        help="parameter preset (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "write a JSONL telemetry trace to PATH (experiments whose runner "
            "has no telemetry support ignore the flag with a notice)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "checkpoint training state into DIR (training-grid experiments "
            "only; others ignore the flag with a notice)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the latest valid snapshots in --checkpoint-dir "
            "(bit-identical to an uninterrupted run); without this flag, "
            "existing snapshots are ignored and overwritten"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run an experiment's independent cells over N worker processes "
            "(results are bit-identical to serial for any N; experiments "
            "without parallel support ignore the flag with a notice)"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=("reference", "fused", "cext", "auto"),
        help=(
            "numeric kernel backend for the hot paths (default: the "
            "REPRO_BACKEND env var, else 'reference'); 'auto' picks the "
            "fastest available accelerated backend, unavailable choices "
            "fall back with a telemetry counter (see docs/backends.md)"
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help=(
            "intra-kernel thread count for the accelerated backends "
            "(default: the REPRO_THREADS env var, else 1); outputs are "
            "bit-identical for any N — chunking is derived from input "
            "shapes, never from the thread count (see docs/parallelism.md)"
        ),
    )
    parser.add_argument(
        "--grad-mode",
        default=None,
        choices=("materialize", "ghost"),
        help=(
            "per-sample gradient strategy for training-grid experiments: "
            "'materialize' (default) builds the full (B, P) matrix; 'ghost' "
            "clips and sums without it — O(P) gradient memory (experiments "
            "without training ignore the flag with a notice)"
        ),
    )
    return parser


def _supports_kwarg(name: str, kwarg: str) -> bool:
    """Whether an experiment's runner accepts the given keyword argument."""
    run, _, _ = EXPERIMENTS[name]
    return kwarg in inspect.signature(run).parameters


def supports_telemetry(name: str) -> bool:
    """Whether an experiment's runner accepts a ``telemetry=`` path."""
    return _supports_kwarg(name, "telemetry")


def supports_checkpointing(name: str) -> bool:
    """Whether an experiment's runner accepts a ``checkpoint_dir=`` path."""
    return _supports_kwarg(name, "checkpoint_dir")


def supports_workers(name: str) -> bool:
    """Whether an experiment's runner accepts a ``workers=`` count."""
    return _supports_kwarg(name, "workers")


def supports_grad_mode(name: str) -> bool:
    """Whether an experiment's runner accepts a ``grad_mode=`` choice."""
    return _supports_kwarg(name, "grad_mode")


def run_one(
    name: str,
    scale: str,
    seed: int,
    telemetry: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    workers: int | None = None,
    grad_mode: str | None = None,
) -> str:
    """Run one experiment and return its formatted table."""
    run, fmt, _ = EXPERIMENTS[name]
    notice = ""
    kwargs = {}
    if telemetry is not None:
        if supports_telemetry(name):
            kwargs["telemetry"] = telemetry
        else:
            notice += f"[{name} does not support --telemetry; flag ignored]\n"
    if checkpoint_dir is not None:
        if supports_checkpointing(name):
            kwargs["checkpoint_dir"] = checkpoint_dir
            kwargs["resume"] = resume
        else:
            notice += f"[{name} does not support --checkpoint-dir; flag ignored]\n"
    if workers is not None:
        if supports_workers(name):
            kwargs["workers"] = workers
        else:
            notice += f"[{name} does not support --workers; flag ignored]\n"
    if grad_mode is not None:
        if supports_grad_mode(name):
            kwargs["grad_mode"] = grad_mode
        else:
            notice += f"[{name} does not support --grad-mode; flag ignored]\n"
    start = time.perf_counter()
    result = run(scale, rng=seed, **kwargs)
    elapsed = time.perf_counter() - start
    return f"{notice}{fmt(result)}\n[{name} completed in {elapsed:.1f}s]"


def run_report(
    path: str,
    *,
    fmt: str = "markdown",
    chrome: str | None = None,
    alerts_only: bool = False,
) -> str:
    """Render the report for one exported trace file; optionally write Chrome JSON.

    Merges every run bundle's span tree onto one per-run track when
    ``chrome`` is given, so a multi-run trace file (e.g. the trace
    experiment's dpsgd + geodp pair) lands in a single timeline view.
    """
    from repro.telemetry import Tracer, build_report, load_run_bundles, render_report

    bundles = load_run_bundles(path)
    text = render_report(build_report(bundles), fmt=fmt, alerts_only=alerts_only)
    if chrome is not None:
        merged = Tracer(granularity="phase")
        for run in sorted(bundles):
            tracer = bundles[run].tracer
            if tracer is not None:
                merged.merge_state(tracer.state_dict(), track=run)
        merged.save_chrome_trace(chrome)
        text += f"\n[Chrome trace written to {chrome}]"
    return text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ("serve", "submit", "tenants"):
        from repro.service.cli import main as service_main

        return service_main(argv)
    if argv and argv[0] == "monitor":
        from repro.telemetry.live.monitor import main as monitor_main

        return monitor_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, (_, _, description) in sorted(EXPERIMENTS.items()):
            print(f"{name:8s} {description}")
        return 0
    if args.experiment == "report":
        if args.path is None:
            print("report requires a trace file path", file=sys.stderr)
            return 2
        print(
            run_report(
                args.path,
                fmt=args.report_format,
                chrome=args.chrome,
                alerts_only=args.alerts_only,
            )
        )
        return 0
    if args.path is not None:
        print("only the 'report' subcommand takes a trace path", file=sys.stderr)
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.backend is not None:
        from repro.backend import get_backend, set_backend

        set_backend(args.backend)
        active = get_backend().name
        if args.backend != "auto" and active != args.backend:
            print(f"[backend {args.backend!r} unavailable; using {active!r}]")
    if args.threads is not None:
        from repro.backend import set_num_threads

        if args.threads < 1:
            print("--threads must be >= 1", file=sys.stderr)
            return 2
        set_num_threads(args.threads)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    profiler = None
    if args.profile is not None:
        from repro.telemetry.live.profiler import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        for name in names:
            print(
                run_one(
                    name,
                    args.scale,
                    args.seed,
                    telemetry=args.telemetry,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                    workers=args.workers,
                    grad_mode=args.grad_mode,
                )
            )
            print()
    finally:
        if profiler is not None:
            profiler.stop().save_collapsed(args.profile)
            print(f"[profile: {profiler.sample_count} samples -> {args.profile}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
