"""Rounds, metrics, checks and output of the DP training-step benchmark.

A *round* rebuilds the workload from the seed — data, model, optimizer,
accountant, ledger, trainer; its set-up time includes the first (cold)
step — then times a fixed number of ``train(1)`` calls, then runs one more
step under ``tracemalloc`` for the peak-memory metric.  A run times
:data:`ROUNDS` rounds back to back; the step count per round comes from
``--seconds`` and the workload's nominal step time, so it is the same on
every commit.  Every round must give a bit-identical loss trajectory,
ledger head and parameter vector.

End-to-end metrics come from untraced rounds only.  With tracing on, the
run times one untraced round, then one traced round whose per-layer spans
(see :mod:`step_probe`) give the attribution; the traced round must also be
bit-identical to the untraced one, which shows the probe changed nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import threading
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backend import get_backend, get_num_threads, use_backend, workspace
from repro.privacy.ledger import verify_ledger
from repro.telemetry import Tracer
from step_probe import Probe, summarize, workspace_counts
from step_workloads import WORKLOADS

#: Untraced rounds of a timed run.
ROUNDS = 5
MIN_COVERAGE = 0.85
#: Steps after the cold one replayed on the reference backend, and the
#: relative tolerance their losses must match (kernel parity is ~1e-10).
REFERENCE_STEPS = 2
REFERENCE_RTOL = 1e-9
#: Steps of the traced round written to the Chrome trace.
CHROME_STEPS = 20

#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "step_s_p50": "s",
    "step_s_tail": "s",
    "step_s_tail_pct": "%",
    "steps_timed": "count",
    "samples_per_s": "1/s",
    "peak_bytes": "bytes",
    "loss_final": "nats",
    "setup_s": "s",
}


def metric_unit(name: str) -> str:
    """Unit of any metric this benchmark reports, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls") or name == "backend.workspace_misses":
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


@dataclass
class Round:
    """What one round measured."""

    batch_size: int
    setup_data_s: float
    setup_build_s: float
    setup_first_step_s: float
    times: list[float] = field(default_factory=list)
    #: Every step's loss: the cold step, the timed steps, the peak step.
    losses: list[float] = field(default_factory=list)
    peak_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    broken: bool = False
    ledger_ok: bool = False
    ledger_entries: int = 0
    ledger_head: str = ""
    digest: str = ""
    params_finite: bool = False
    workspace_hits: int = 0
    workspace_misses: int = 0
    tracer: Tracer | None = None

    @property
    def setup_s(self) -> float:
        return self.setup_data_s + self.setup_build_s + self.setup_first_step_s

    @property
    def fingerprint(self) -> tuple:
        """Everything two rounds of one workload and seed must share bit-for-bit."""
        return (
            tuple(float(x).hex() for x in self.losses),
            self.ledger_head,
            self.digest,
        )


class _Step:
    """Runs one ``train(1)`` of a run, counting attempts and failures."""

    def __init__(self, run, record: Round):
        self.run = run
        self.record = record

    def __call__(self) -> float | None:
        record = self.record
        record.attempted += 1
        try:
            loss = float(self.run.trainer.train(1).losses[-1])
        except Exception:  # a failing step is counted and ends the round
            traceback.print_exc(file=sys.stderr)
            record.failed += 1
            record.broken = True
            return None
        if not math.isfinite(loss):
            record.failed += 1
        record.losses.append(loss)
        return loss


def run_round(workload, seed: int, steps: int, *, traced: bool = False) -> Round:
    """Build ``workload`` from ``seed`` and time ``steps`` DP steps."""
    gc.collect()
    # A fresh arena per round, so no round inherits another's warm buffers.
    workspace.invalidate()
    start = time.perf_counter()
    data = workload.make_data(seed)
    built = time.perf_counter()
    run = workload.build(data, seed)
    ready = time.perf_counter()
    record = Round(run.trainer.batch_size, built - start, ready - built, 0.0)
    step = _Step(run, record)
    step()
    record.setup_first_step_s = time.perf_counter() - ready
    if record.broken:
        return record

    probe = Probe() if traced else None
    hits, misses = workspace_counts()
    timer = time.perf_counter
    with probe.installed(run) if probe else nullcontext():
        for _ in range(steps):
            with probe.step() if probe else nullcontext():
                begin = timer()
                loss = step()
                elapsed = timer() - begin
            if loss is None:
                break
            record.times.append(elapsed)
    end_hits, end_misses = workspace_counts()
    record.workspace_hits = end_hits - hits
    record.workspace_misses = end_misses - misses
    record.tracer = probe.tracer if probe else None
    if record.broken:
        return record

    tracemalloc.start()
    try:
        step()
        record.peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    verdict = verify_ledger(run.ledger, accountant=run.accountant, strict=False)
    record.ledger_ok = verdict.ok
    record.ledger_entries = len(run.ledger)
    record.ledger_head = run.ledger.head
    params = run.model.get_params()
    record.params_finite = bool(np.isfinite(params).all())
    record.digest = hashlib.sha256(params.tobytes()).hexdigest()
    return record


# ------------------------------------------------------------------ metrics
def best_step_times(rounds: list[Round]) -> np.ndarray:
    """Each timed step's fastest time over the rounds.

    Rounds repeat bit-identical work, so step ``i`` of every round is the
    same computation; its fastest of :data:`ROUNDS` repeats is its cost with
    the least interference.  On a shared host, other load can slow this
    process 1.5-3x for stretches of a fraction of a second to minutes, which
    the raw per-step times would mix into every statistic.
    """
    steps = min(len(r.times) for r in rounds)
    return np.min([r.times[:steps] for r in rounds], axis=0)


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """The user-visible metrics of the workload, from its untraced rounds.

    ``step_s_tail`` is the highest percentile of all timed steps, as they
    ran, that leaves :data:`TAIL_SAMPLES` of them beyond it; it includes
    interference from other load, so it is reported but not declared.
    """
    if not all(r.times for r in rounds):
        return {}
    times = best_step_times(rounds)
    timed_losses = rounds[0].losses[1 : 1 + times.size]
    last = max(1, times.size // 10)
    metrics = {
        "step_s_p50": float(np.median(times)),
        "samples_per_s": rounds[0].batch_size * times.size / float(times.sum()),
        "peak_bytes": float(statistics.median(r.peak_bytes for r in rounds)),
        "loss_final": float(np.mean(timed_losses[-last:])),
        "setup_s": float(statistics.median(r.setup_s for r in rounds)),
    }
    pooled = np.concatenate([r.times for r in rounds])
    if pooled.size > TAIL_SAMPLES:
        pct = 100.0 * (1.0 - TAIL_SAMPLES / pooled.size)
        metrics["step_s_tail"] = float(np.percentile(pooled, pct))
        metrics["step_s_tail_pct"] = pct
    metrics["steps_timed"] = pooled.size
    return metrics


def per_layer(plain: Round, traced: Round) -> dict[str, float]:
    """Per-step self seconds and calls per span, plus set-up and trace figures."""
    totals = summarize(traced.tracer)
    steps, step_s, covered_s = totals["steps"], totals["step_s"], totals["covered_s"]
    metrics: dict[str, float] = {}
    for span in sorted(totals["self_s"]):
        metrics[f"{span}_s"] = totals["self_s"][span] / steps
        metrics[f"{span}.calls"] = totals["calls"][span] / steps
    hits, misses = traced.workspace_hits, traced.workspace_misses
    metrics.update(
        {
            "setup.data_s": plain.setup_data_s,
            "setup.build_s": plain.setup_build_s,
            "setup.first_step_s": plain.setup_first_step_s,
            "trainer.other_s": (step_s - covered_s) / steps,
            "trace.coverage": covered_s / step_s,
            "trace.overhead": float(np.median(traced.times) / np.median(plain.times) - 1.0),
            "backend.workspace_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "backend.workspace_misses": misses / steps,
        }
    )
    return metrics


def round_checks(plain: list[Round], traced: list[Round]) -> dict[str, bool]:
    """Correctness checks of the workload's rounds."""
    rounds = plain + traced
    reference = plain[0].fingerprint
    checks = {
        "no_failed_steps": all(r.failed == 0 and not r.broken for r in rounds),
        "params_finite": all(r.params_finite for r in rounds),
        "ledger_verified": all(r.ledger_ok for r in rounds),
        "ledger_one_release_per_step": all(r.ledger_entries == r.attempted for r in rounds),
        "rounds_bit_identical": all(r.fingerprint == reference for r in plain),
    }
    if traced:
        checks["traced_bit_identical"] = all(r.fingerprint == reference for r in traced)
    return checks


def save_chrome_trace(record: Round, path: Path) -> None:
    """Write the first :data:`CHROME_STEPS` steps of a traced round."""
    spans = record.tracer.spans
    roots = [i for i, span in enumerate(spans) if span.parent is None]
    cut = roots[CHROME_STEPS] if len(roots) > CHROME_STEPS else len(spans)
    excerpt = Tracer()
    excerpt.load_state_dict({"spans": [span.to_dict() for span in spans[:cut]]})
    excerpt.save_chrome_trace(path)


# ---------------------------------------------------------------------- run
def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def os_threads() -> int:
    """Threads this process runs now, as the OS counts them where it can."""
    tasks = Path("/proc/self/task")
    return len(list(tasks.iterdir())) if tasks.is_dir() else threading.active_count()


def machine_header(args, backend_init_s: float, steps: int, rounds: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend_requested": os.environ.get("REPRO_BACKEND", "reference"),
        "backend_resolved": get_backend().name,
        "backend_init_s": backend_init_s,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": rounds,
        "steps_per_round": steps,
    }


def reference_losses(workload, seed: int, steps: int) -> list[float]:
    """The first ``steps + 1`` losses of ``workload`` on the plain-numpy backend."""
    with use_backend("reference"):
        run = workload.build(workload.make_data(seed), seed)
        return [float(run.trainer.train(1).losses[-1]) for _ in range(steps + 1)]


def declared_metrics(measured: dict, declared: dict, group: str) -> tuple[dict, bool]:
    """The final line's metrics: every ``group`` metric ``BENCHMARK.json`` declares.

    Returns ``(metrics, complete)``; ``complete`` is false when a declared
    end-to-end metric was not measured.  A declared per-layer metric of a
    layer the workload does not have reads 0: that layer did no work.
    """
    metrics, complete = {}, True
    for spec in declared[group]:
        name = spec["name"]
        if name in measured:
            metrics[name] = measured[name]
        elif group == "end_to_end":
            complete = False
        else:
            metrics[name] = {"value": 0.0, "unit": metric_unit(name)}
    return metrics, complete


def print_report(report: dict) -> None:
    for key, value in report["header"].items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"\n## {report['header']['workload']}: {report['why']}")
    for group, values in report["metrics"].items():
        for metric, value in values.items():
            print(f"{group:10s} {metric:42s} {value['value']:>14.6g} {value['unit']}")
    for check, ok in report["checks"].items():
        print(f"check      {check:42s} {'PASS' if ok else 'FAIL':>14s}")
    print(f"\n# correct: {json.dumps(report['correct'])}")


def run(args, declared: dict, backend_init_s: float, out_dir: Path) -> int:
    """Run the selected workload; print the report; return the exit code."""
    name = args.workload
    workload = WORKLOADS[name]
    plain_rounds = 1 if args.smoke or args.trace else ROUNDS
    traced_rounds = 1 if args.trace else 0
    if args.smoke:
        steps = workload.smoke_steps
    else:
        per_round = args.seconds / (plain_rounds + traced_rounds)
        steps = max(2, round(per_round / workload.step_s))
    header = machine_header(args, backend_init_s, steps, plain_rounds)

    plain = [run_round(workload, args.seed, steps) for _ in range(plain_rounds)]
    traced = [run_round(workload, args.seed, steps, traced=True) for _ in range(traced_rounds)]

    groups = {"end_to_end": end_to_end(plain)}
    checks = round_checks(plain, traced)
    expected = reference_losses(workload, args.seed, REFERENCE_STEPS)
    observed = plain[0].losses[: REFERENCE_STEPS + 1]
    checks["matches_reference_backend"] = len(observed) == len(expected) and bool(
        np.allclose(observed, expected, rtol=REFERENCE_RTOL, atol=0.0)
    )
    if traced and traced[0].times and plain[0].times:
        groups["per_layer"] = per_layer(plain[0], traced[0])
        checks["trace_coverage_min"] = groups["per_layer"]["trace.coverage"] >= MIN_COVERAGE
        save_chrome_trace(traced[0], out_dir / f"trace-{name}.json")
    elif traced:
        checks["trace_recorded"] = False
    # Observed after the rounds, when every kernel and BLAS pool has started.
    header["kernel_threads"] = get_num_threads()
    header["os_threads"] = os_threads()
    checks["threads_within_nproc"] = (
        max(header["kernel_threads"], header["os_threads"]) <= header["cpus_usable"]
    )

    metrics = {
        group: {m: {"value": v, "unit": metric_unit(m)} for m, v in values.items()}
        for group, values in groups.items()
    }
    group = "per_layer" if args.trace else "end_to_end"
    final, complete = declared_metrics(metrics.get(group, {}), declared, group)
    correct = all(checks.values()) and complete
    report = {
        "header": header,
        "why": next(w["why"] for w in declared["workloads"] if w["name"] == name),
        "rounds": [
            {"setup_s": r.setup_s, "step_s_p50": float(np.median(r.times)), "steps": len(r.times)}
            for r in plain if r.times
        ],
        "metrics": metrics,
        "checks": checks,
        "correct": correct,
    }
    print_report(report)
    (out_dir / f"report-{name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": final}
        )
    )
    return 0 if correct else 1
