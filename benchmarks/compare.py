"""Compare the newest perf baseline against the oldest and flag regressions.

Usage::

    python benchmarks/compare.py [--dir DIR] [--baseline PATH] [--candidate PATH]
    python benchmarks/compare.py --max-time-regression 0.25 --max-mem-regression 0.5

``benchmarks/run_all.py`` archives each run as ``BENCH_<n>.json``; this
script diffs the newest file (the candidate) against the lowest-numbered
one (the baseline) benchmark by benchmark and exits nonzero when any
shared benchmark regresses by more than 25% wall time or 50% allocation
peak.  Benchmarks present on only one side are reported but never fail
the comparison, so adding a new benchmark doesn't break the gate.

Archives may carry per-backend sections (``"backends": {name: {...}}``,
see ``run_all.py``).  Each backend is compared against *its own* section
of the baseline (old archives without sections contribute only the
top-level reference mapping), and a second, within-candidate gate checks
that every accelerated backend actually earns its keep: the headline
kernels (``HEADLINE_BENCHMARKS``) must be strictly faster than the
reference backend in the same run, and no kernel may run more than 10%
slower than reference.  An accelerated backend that loses to pure numpy
exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default regression thresholds (fractional increase over baseline).
MAX_TIME_REGRESSION = 0.25
MAX_MEM_REGRESSION = 0.50

#: Wall-time denominators below this are floored before computing a
#: regression ratio.  Sub-millisecond medians are dominated by timer and
#: scheduler noise — a kernel that moves from 0.1 ms to 0.2 ms reads as a
#: "2x regression" while being entirely jitter — so ratios are taken
#: against ``max(baseline, MIN_TIME_SECONDS)``.  Genuine regressions of
#: fast kernels still trip the gate once they cost real time.
MIN_TIME_SECONDS = 1e-3

#: Kernels an accelerated backend must run strictly faster than reference.
HEADLINE_BENCHMARKS = ("perturb_geodp_batch", "ghost_clipped_sum")

#: Slack for non-headline kernels under an accelerated backend (they may
#: not be optimized, but must never cost more than this over reference).
#: Matches MAX_TIME_REGRESSION: several benchmarks share code across
#: backends, so the difference is pure timing noise.
MAX_ACCELERATED_SLOWDOWN = 0.25

#: The sparse training step must beat the dense ghost step whenever the
#: archive's touch rate is at or below this fraction of the table.
MAX_SPARSE_TOUCH_RATE = 0.10

#: Budget-server admission floors (see ``bench_service.service_section``).
MIN_SERVICE_DECISIONS_PER_SEC = 200.0
MAX_SERVICE_P95_SECONDS = 0.05

#: Live observability ceilings (see ``bench_live.live_section``): the
#: registry + per-step HealthMonitor may add at most this fraction over a
#: recorder-only run, and one scrape render / rule evaluation must stay
#: below this latency so scraping never perturbs the run.
MAX_LIVE_OVERHEAD = 0.05
MAX_LIVE_SCRAPE_P95_SECONDS = 0.05

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def bench_files(directory) -> list[Path]:
    """``BENCH_<n>.json`` files in ``directory``, sorted by ``n`` ascending."""
    found = []
    for entry in Path(directory).iterdir():
        match = _BENCH_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def load_benchmarks(path) -> dict:
    """The ``benchmarks`` mapping of one archived run."""
    payload = json.loads(Path(path).read_text())
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict):
        raise ValueError(f"{path} has no 'benchmarks' mapping")
    return benchmarks


def load_backend_sections(path) -> dict:
    """Per-backend benchmark sections of one archive.

    Pre-backend archives have no ``backends`` key; their top-level
    ``benchmarks`` mapping *is* the reference backend, so it is returned
    as the ``reference`` section — old baselines stay comparable.
    """
    payload = json.loads(Path(path).read_text())
    sections = payload.get("backends")
    if isinstance(sections, dict) and sections:
        return sections
    return {"reference": load_benchmarks(path)}


def describe_env(path) -> str:
    """One-line machine context from an archive's header fields.

    Archives record ``cpu_count`` and backend availability; those written
    while the library had a kernel thread pool also carry ``num_threads``
    and ``threads_env``; older archives yield an empty string.  Regression
    ratios are only meaningful between comparable machines, so the report
    surfaces the context.
    """
    payload = json.loads(Path(path).read_text())
    bits = []
    for key in ("cpu_count", "num_threads", "threads_env"):
        if payload.get(key) is not None:
            bits.append(f"{key}={payload[key]}")
    available = payload.get("backends_available")
    if isinstance(available, dict):
        names = ",".join(sorted(name for name, ok in available.items() if ok))
        bits.append(f"backends={names}")
    return "  ".join(bits)


def compare(
    baseline: dict,
    candidate: dict,
    *,
    max_time_regression: float = MAX_TIME_REGRESSION,
    max_mem_regression: float = MAX_MEM_REGRESSION,
) -> tuple[list[str], list[str]]:
    """Diff two benchmark mappings; returns ``(report lines, failures)``."""
    lines = []
    failures = []
    shared = sorted(set(baseline) & set(candidate))
    for name in shared:
        base, cand = baseline[name], candidate[name]
        # Floor sub-millisecond baselines: ratios against timer jitter are
        # meaningless (see MIN_TIME_SECONDS).
        base_seconds = max(base["seconds"], MIN_TIME_SECONDS)
        time_ratio = cand["seconds"] / base_seconds
        mem_ratio = (
            cand["peak_bytes"] / base["peak_bytes"] if base["peak_bytes"] > 0 else 1.0
        )
        problems = []
        if time_ratio > 1.0 + max_time_regression:
            problems.append(f"TIME REGRESSION (> +{max_time_regression:.0%})")
            failures.append(f"{name}: time {time_ratio:.2f}x baseline")
        if mem_ratio > 1.0 + max_mem_regression:
            problems.append(f"MEM REGRESSION (> +{max_mem_regression:.0%})")
            failures.append(f"{name}: peak memory {mem_ratio:.2f}x baseline")
        verdict = " + ".join(problems) if problems else "ok"
        lines.append(
            f"{name:28s} time {time_ratio:6.2f}x   mem {mem_ratio:6.2f}x   {verdict}"
        )
    for name in sorted(set(candidate) - set(baseline)):
        lines.append(f"{name:28s} (new benchmark; no baseline)")
    for name in sorted(set(baseline) - set(candidate)):
        lines.append(f"{name:28s} (missing from candidate)")
    if not shared:
        lines.append("(no shared benchmarks to compare)")
    return lines, failures


def compare_files(
    baseline_path,
    candidate_path,
    *,
    max_time_regression: float = MAX_TIME_REGRESSION,
    max_mem_regression: float = MAX_MEM_REGRESSION,
) -> tuple[str, bool]:
    """Compare two archive files section by section; returns ``(report, ok)``.

    Every backend section of the candidate is diffed against the same
    backend's section in the baseline; sections with no baseline (e.g. a
    newly available backend) are reported but never fail.
    """
    base_sections = load_backend_sections(baseline_path)
    cand_sections = load_backend_sections(candidate_path)
    header = [
        f"baseline:  {baseline_path}",
        f"candidate: {candidate_path}",
    ]
    env = describe_env(candidate_path)
    if env:
        header.append(f"candidate environment: {env}")
    lines: list[str] = []
    failures: list[str] = []
    for backend in sorted(cand_sections):
        lines.append("")
        if backend not in base_sections:
            lines.append(f"[{backend}] (new backend section; no baseline)")
            continue
        lines.append(f"[{backend}] vs its own baseline section")
        section_lines, section_failures = compare(
            base_sections[backend],
            cand_sections[backend],
            max_time_regression=max_time_regression,
            max_mem_regression=max_mem_regression,
        )
        lines.extend(f"  {line}" for line in section_lines)
        failures.extend(f"[{backend}] {failure}" for failure in section_failures)
    for backend in sorted(set(base_sections) - set(cand_sections)):
        lines.append("")
        lines.append(f"[{backend}] (missing from candidate)")
    footer = (
        ["", "PASS: no perf regressions"]
        if not failures
        else ["", "FAIL:"] + [f"  - {failure}" for failure in failures]
    )
    return "\n".join(header + lines + footer), not failures


def gate_accelerated(
    sections: dict,
    *,
    headline: tuple = HEADLINE_BENCHMARKS,
    max_slowdown: float = MAX_ACCELERATED_SLOWDOWN,
) -> tuple[list[str], list[str]]:
    """Within-run gate: accelerated backends must beat the reference.

    For every non-reference section, each headline kernel must be
    strictly faster than the reference section of the same run, and no
    shared kernel may exceed reference time by ``max_slowdown``.
    Returns ``(report lines, failures)``.
    """
    lines: list[str] = []
    failures: list[str] = []
    reference = sections.get("reference")
    if reference is None:
        return ["(no reference section; accelerated gate skipped)"], []
    for backend in sorted(sections):
        if backend == "reference":
            continue
        lines.append(f"[{backend}] vs reference (same run)")
        for name in sorted(set(reference) & set(sections[backend])):
            ref_s = reference[name]["seconds"]
            cand_s = sections[backend][name]["seconds"]
            ratio = cand_s / ref_s if ref_s > 0 else 1.0
            if name in headline:
                ok = ratio < 1.0
                verdict = "ok (beats reference)" if ok else "FAIL: must beat reference"
                if not ok:
                    failures.append(
                        f"[{backend}] {name}: {ratio:.2f}x reference (headline "
                        "kernel must be < 1.00x)"
                    )
            else:
                ok = ratio <= 1.0 + max_slowdown
                verdict = "ok" if ok else f"FAIL: > +{max_slowdown:.0%} over reference"
                if not ok:
                    failures.append(f"[{backend}] {name}: {ratio:.2f}x reference")
            lines.append(f"  {name:28s} time {ratio:6.2f}x reference   {verdict}")
    if not lines:
        lines.append("(no accelerated backend sections; gate skipped)")
    return lines, failures


def gate_accelerated_file(path, **kwargs) -> tuple[str, bool]:
    """Run :func:`gate_accelerated` on one archive; returns ``(report, ok)``."""
    lines, failures = gate_accelerated(load_backend_sections(path), **kwargs)
    header = [f"accelerated-backend gate: {path}", ""]
    footer = (
        ["", "PASS: accelerated backends beat reference"]
        if not failures
        else ["", "FAIL:"] + [f"  - {failure}" for failure in failures]
    )
    return "\n".join(header + lines + footer), not failures


def gate_sparse(
    section: dict | None, *, max_touch_rate: float = MAX_SPARSE_TOUCH_RATE
) -> tuple[list[str], list[str]]:
    """Within-run gate: the sparse step must beat the dense step.

    ``section`` is an archive's ``"sparse"`` mapping (see
    ``bench_sparse.sparse_section``); archives without one pass trivially.
    At touch rates at or below ``max_touch_rate`` the sparse training step
    must be strictly faster than the dense ghost step of the same run —
    if deferred noise or the compacted gradients stop paying for
    themselves, the archive fails.  Returns ``(report lines, failures)``.
    """
    if not section:
        return ["(no sparse section; sparse gate skipped)"], []
    touch_rate = float(section.get("touch_rate", 1.0))
    benchmarks = section.get("benchmarks", {})
    dense = benchmarks.get("dense_step", {}).get("seconds")
    sparse = benchmarks.get("sparse_step", {}).get("seconds")
    if dense is None or sparse is None:
        return ["(sparse section lacks dense_step/sparse_step; gate skipped)"], []
    ratio = sparse / dense if dense > 0 else float("inf")
    line = (
        f"sparse_step {ratio:6.2f}x dense_step at touch rate {touch_rate:.1%} "
        f"(vocab {section.get('vocab_size', '?')})"
    )
    if touch_rate > max_touch_rate:
        return [line + f"   (touch rate > {max_touch_rate:.0%}; gate skipped)"], []
    if ratio < 1.0:
        return [line + "   ok (beats dense)"], []
    failure = (
        f"sparse_step: {ratio:.2f}x dense_step at touch rate {touch_rate:.1%} "
        f"(must be < 1.00x at <= {max_touch_rate:.0%})"
    )
    return [line + "   FAIL: must beat dense"], [failure]


def gate_sparse_file(path, **kwargs) -> tuple[str, bool]:
    """Run :func:`gate_sparse` on one archive; returns ``(report, ok)``."""
    payload = json.loads(Path(path).read_text())
    lines, failures = gate_sparse(payload.get("sparse"), **kwargs)
    header = [f"sparse-training gate: {path}", ""]
    footer = (
        ["", "PASS: sparse step beats dense"]
        if not failures
        else ["", "FAIL:"] + [f"  - {failure}" for failure in failures]
    )
    return "\n".join(header + lines + footer), not failures


def gate_service(
    section: dict | None,
    *,
    min_per_second: float = MIN_SERVICE_DECISIONS_PER_SEC,
    max_p95_seconds: float = MAX_SERVICE_P95_SECONDS,
) -> tuple[list[str], list[str]]:
    """Within-run gate: budget-server admission must stay fast.

    ``section`` is an archive's ``"service"`` mapping (see
    ``bench_service.service_section``); archives without one pass
    trivially.  The archived run must have sustained at least
    ``min_per_second`` admission decisions per second with a p95
    per-decision latency at or below ``max_p95_seconds``.  Returns
    ``(report lines, failures)``.
    """
    if not section:
        return ["(no service section; admission gate skipped)"], []
    per_second = section.get("decisions_per_second")
    p95 = section.get("p95_latency_seconds")
    if per_second is None or p95 is None:
        return ["(service section lacks throughput/latency; gate skipped)"], []
    lines = []
    failures = []
    per_second, p95 = float(per_second), float(p95)
    ok = per_second >= min_per_second
    lines.append(
        f"admission throughput {per_second:10.0f} decisions/s "
        f"(floor {min_per_second:.0f}/s)   {'ok' if ok else 'FAIL'}"
    )
    if not ok:
        failures.append(
            f"admission: {per_second:.0f} decisions/s "
            f"(must be >= {min_per_second:.0f})"
        )
    ok = p95 <= max_p95_seconds
    lines.append(
        f"admission p95 latency {p95 * 1e3:9.3f} ms "
        f"(ceiling {max_p95_seconds * 1e3:.0f} ms)   {'ok' if ok else 'FAIL'}"
    )
    if not ok:
        failures.append(
            f"admission: p95 latency {p95:.4f}s "
            f"(must be <= {max_p95_seconds}s)"
        )
    return lines, failures


def gate_service_file(path, **kwargs) -> tuple[str, bool]:
    """Run :func:`gate_service` on one archive; returns ``(report, ok)``."""
    payload = json.loads(Path(path).read_text())
    lines, failures = gate_service(payload.get("service"), **kwargs)
    header = [f"budget-server admission gate: {path}", ""]
    footer = (
        ["", "PASS: admission stays within its speed floors"]
        if not failures
        else ["", "FAIL:"] + [f"  - {failure}" for failure in failures]
    )
    return "\n".join(header + lines + footer), not failures


def gate_live(
    section: dict | None,
    *,
    max_overhead: float = MAX_LIVE_OVERHEAD,
    max_scrape_p95_seconds: float = MAX_LIVE_SCRAPE_P95_SECONDS,
) -> tuple[list[str], list[str]]:
    """Within-run gate: live observability must stay near-free.

    ``section`` is an archive's ``"live"`` mapping (see
    ``bench_live.live_section``); archives without one pass trivially.
    The archived run's steady-state overhead (registry mirroring plus
    per-step alert evaluation, relative to a recorder-only run) must be
    under ``max_overhead``, and both the rule-evaluation and
    Prometheus-render p95 latencies must be at or below
    ``max_scrape_p95_seconds``.  Returns ``(report lines, failures)``.
    """
    if not section:
        return ["(no live section; observability gate skipped)"], []
    overhead = section.get("overhead_fraction")
    if overhead is None:
        return ["(live section lacks overhead_fraction; gate skipped)"], []
    lines = []
    failures = []
    overhead = float(overhead)
    ok = overhead < max_overhead
    lines.append(
        f"live-layer overhead {overhead:+10.2%} "
        f"(budget {max_overhead:.0%})   {'ok' if ok else 'FAIL'}"
    )
    if not ok:
        failures.append(
            f"live: overhead {overhead:+.2%} (must be < {max_overhead:.0%})"
        )
    for key, label in (
        ("evaluate_p95_seconds", "rule evaluation"),
        ("render_p95_seconds", "prometheus render"),
    ):
        p95 = section.get(key)
        if p95 is None:
            continue
        p95 = float(p95)
        ok = p95 <= max_scrape_p95_seconds
        lines.append(
            f"{label} p95 {p95 * 1e3:9.3f} ms "
            f"(ceiling {max_scrape_p95_seconds * 1e3:.0f} ms)   "
            f"{'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"live: {label} p95 {p95:.4f}s "
                f"(must be <= {max_scrape_p95_seconds}s)"
            )
    return lines, failures


def gate_live_file(path, **kwargs) -> tuple[str, bool]:
    """Run :func:`gate_live` on one archive; returns ``(report, ok)``."""
    payload = json.loads(Path(path).read_text())
    lines, failures = gate_live(payload.get("live"), **kwargs)
    header = [f"live observability gate: {path}", ""]
    footer = (
        ["", "PASS: live observability stays within its ceilings"]
        if not failures
        else ["", "FAIL:"] + [f"  - {failure}" for failure in failures]
    )
    return "\n".join(header + lines + footer), not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=str(REPO_ROOT), metavar="DIR",
        help="directory holding BENCH_<n>.json archives (default: repo root)",
    )
    parser.add_argument("--baseline", default=None, help="explicit baseline file")
    parser.add_argument("--candidate", default=None, help="explicit candidate file")
    parser.add_argument(
        "--max-time-regression", type=float, default=MAX_TIME_REGRESSION,
        help="allowed fractional wall-time increase (default: 0.25)",
    )
    parser.add_argument(
        "--max-mem-regression", type=float, default=MAX_MEM_REGRESSION,
        help="allowed fractional peak-memory increase (default: 0.5)",
    )
    args = parser.parse_args(argv)

    baseline, candidate = args.baseline, args.candidate
    if baseline is None or candidate is None:
        files = bench_files(args.dir)
        if len(files) < 2:
            print(
                f"need at least two BENCH_<n>.json files in {args.dir} "
                f"(found {len(files)}); run benchmarks/run_all.py twice"
            )
            return 0
        baseline = baseline or files[0]
        candidate = candidate or files[-1]

    report, ok = compare_files(
        baseline,
        candidate,
        max_time_regression=args.max_time_regression,
        max_mem_regression=args.max_mem_regression,
    )
    print(report)
    gate_report, gate_ok = gate_accelerated_file(candidate)
    print(f"\n{gate_report}")
    sparse_report, sparse_ok = gate_sparse_file(candidate)
    print(f"\n{sparse_report}")
    service_report, service_ok = gate_service_file(candidate)
    print(f"\n{service_report}")
    live_report, live_ok = gate_live_file(candidate)
    print(f"\n{live_report}")
    return 0 if ok and gate_ok and sparse_ok and service_ok and live_ok else 1


if __name__ == "__main__":
    sys.exit(main())
