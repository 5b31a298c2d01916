"""Gate a ``BENCH_<n>.json`` archive with one threshold table.

Usage::

    python3 benchmarks/compare.py [--dir DIR] [--baseline PATH] [--candidate PATH]

``benchmarks/run_all.py`` writes each run as ``BENCH_<n>.json``.  Every
section of an archive is a ``{metric: {"value", "unit"}}`` mapping, named
here by a path: ``step/<workload>``, ``kernels/<backend>``, ``sparse``,
``service`` and ``live``.  Each :class:`Row` of the table picks metrics by
section and metric pattern and judges them by one rule: the metric's value
divided by a reference value must stay within ``limit``, in the row's
``better`` direction.  The reference is

- ``"baseline"``: the same metric in the oldest archive that has the
  section, so a section added later is gated from its first archive on;
- ``"<section>:<metric>"``: a value of the same run, where an empty part
  means the row's own (an accelerated backend against the reference
  backend, the sparse step against the dense step).  A metric is never
  its own reference;
- ``None``: the value itself is gated, as a floor or a ceiling.

The step rows are built at run time from the repository's
``BENCHMARK.json``: one per declared end-to-end metric, at its ``better``
direction and ``bound``.  The other rows, :data:`FIXED_ROWS`, keep their
bounds in this file.  A metric is judged by the first row that matches it
for a given reference.  A metric with no reference value (new metric, new
section, first archive) is reported and never fails.

The candidate defaults to the newest archive in ``--dir`` and the baselines
to the archives before it.  Archives without a ``machine`` header
(``BENCH_0``–``2``) predate this shape: they are skipped as baselines and
as candidates, and stay as history.  Exits 1 when any row fails.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Wall-time references below this are raised to it before a history
#: ratio is taken.  Sub-millisecond medians are dominated by timer and
#: scheduler noise: a kernel moving from 0.1 ms to 0.2 ms is jitter, not a
#: "2x regression".  Real regressions of fast kernels still fail once they
#: cost real time.
MIN_TIME_SECONDS = 1e-3


@dataclass(frozen=True)
class Row:
    """One threshold: ``metric`` of ``section`` over its reference, within ``limit``."""

    section: str
    metric: str
    limit: float
    better: str = "lower"
    reference: str | None = "baseline"
    #: The ratio must pass the limit, not merely reach it.
    strict: bool = False
    #: The reference is raised to this before dividing.
    floor: float = 0.0
    #: ``(metric, max)``: the row applies only while that metric of the
    #: section is at most ``max``.
    guard: tuple[str, float] | None = None

    def passes(self, ratio: float) -> bool:
        if self.better == "lower":
            return ratio < self.limit if self.strict else ratio <= self.limit
        return ratio > self.limit if self.strict else ratio >= self.limit

    def bound_text(self) -> str:
        op = {"lower": "<", "higher": ">"}[self.better] + ("" if self.strict else "=")
        return f"{op} {self.limit:g}"


FIXED_ROWS = (
    # History: kernel wall time may grow 25% (against at least 1 ms) and
    # the allocation peak 50%.
    Row("kernels/*", "*_s", 1.25, floor=MIN_TIME_SECONDS),
    Row("kernels/*", "*_peak_bytes", 1.50),
    # Within a run, an accelerated backend must earn its keep: the two
    # headline kernels strictly faster than the reference backend, no
    # other kernel more than 25% slower.
    Row("kernels/*", "perturb_geodp_batch_s", 1.0, reference="kernels/reference:", strict=True),
    Row("kernels/*", "ghost_clipped_sum_s", 1.0, reference="kernels/reference:", strict=True),
    Row("kernels/*", "*_s", 1.25, reference="kernels/reference:"),
    # The sparse step must beat the dense ghost step at touch rates <= 10%.
    Row(
        "sparse", "sparse_step_s", 1.0, reference=":dense_step_s", strict=True,
        guard=("touch_rate", 0.10),
    ),
    # Budget-server admission floors (``bench_service.service_section``).
    Row("service", "decisions_per_s", 200.0, better="higher", reference=None),
    Row("service", "admission_p95_s", 0.05, reference=None),
    # Live observability ceilings (``bench_live.live_section``): overhead
    # over a recorder-only run, and one rule evaluation / one Prometheus
    # render.
    Row("live", "overhead", 0.05, reference=None, strict=True),
    Row("live", "*_p95_s", 0.05, reference=None),
)


def table() -> list[Row]:
    """The step rows, then :data:`FIXED_ROWS`.

    Each end-to-end metric the repository's ``BENCHMARK.json`` declares is
    one history row over every step workload, at the declared ``better``
    direction and ``bound``.
    """
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    step = [
        Row(
            "step/*",
            spec["name"],
            1 + spec["bound"] if spec["better"] == "lower" else 1 - spec["bound"],
            better=spec["better"],
        )
        for spec in declared["end_to_end"]
    ]
    return step + list(FIXED_ROWS)


_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def bench_files(directory) -> list[Path]:
    """``BENCH_<n>.json`` files in ``directory``, sorted by ``n`` ascending."""
    found = []
    for entry in Path(directory).iterdir():
        match = _BENCH_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def load_sections(path) -> dict[str, dict]:
    """Section path -> metrics of one archive; empty without a ``machine`` header."""
    archive = json.loads(Path(path).read_text())
    if "machine" not in archive:
        return {}
    sections = {
        f"step/{name}": run["metrics"] for name, run in archive.get("step", {}).items()
    }
    sections.update(
        {f"kernels/{name}": m for name, m in archive.get("kernels", {}).items()}
    )
    sections.update(
        {name: archive[name] for name in ("sparse", "service", "live") if name in archive}
    )
    return sections


def oldest_sections(paths) -> dict[str, dict]:
    """Each section of the oldest archive in ``paths`` (oldest first) that has it."""
    sections: dict[str, dict] = {}
    for path in reversed(paths):
        sections.update(load_sections(path))
    return sections


def describe_env(path) -> str:
    """One-line machine context from an archive's ``machine`` header ("" without one)."""
    machine = json.loads(Path(path).read_text()).get("machine")
    if not machine:
        return ""
    backends = ",".join(sorted(n for n, ok in machine["backends_available"].items() if ok))
    return (
        f"cpu_count={machine['cpu_count']}  python={machine['python']}  "
        f"numpy={machine['numpy']}  backends={backends}"
    )


def _value(sections: dict, section: str, metric: str) -> float | None:
    return sections.get(section, {}).get(metric, {}).get("value")


def _reference(row: Row, section: str, metric: str, candidate: dict, baseline: dict):
    """``(value, name)`` that ``row`` divides ``section``/``metric`` by; None for itself."""
    if row.reference is None:
        return 1.0, ""
    if row.reference == "baseline":
        return _value(baseline, section, metric), "baseline"
    ref_section, _, ref_metric = row.reference.partition(":")
    ref_section, ref_metric = ref_section or section, ref_metric or metric
    if (ref_section, ref_metric) == (section, metric):
        return None
    return _value(candidate, ref_section, ref_metric), f"{ref_section} {ref_metric}"


def evaluate(candidate: dict, baseline: dict, rows) -> tuple[list[str], list[str]]:
    """Judge ``candidate``'s sections by ``rows``; returns ``(report lines, failures)``.

    ``candidate`` and ``baseline`` map section paths to metrics, as
    :func:`load_sections` returns them.
    """
    lines: list[str] = []
    failures: list[str] = []
    judged = set()
    for row in rows:
        for section in sorted(fnmatch.filter(candidate, row.section)):
            metrics = candidate[section]
            if row.guard is not None:
                name, most = row.guard
                guard_value = _value(candidate, section, name)
                if guard_value is None or guard_value > most:
                    lines.append(f"{section} {row.metric}: skipped ({name} > {most:g})")
                    continue
            for metric in sorted(fnmatch.filter(metrics, row.metric)):
                found = _reference(row, section, metric, candidate, baseline)
                if found is None or (section, metric, row.reference) in judged:
                    continue
                judged.add((section, metric, row.reference))
                reference, against = found
                label = f"{section} {metric}"
                if reference is None or reference <= 0:
                    lines.append(f"{label:54s} no {against} value; not gated")
                    continue
                ratio = metrics[metric]["value"] / max(reference, row.floor)
                text = f"{ratio:.4g}" + (f"x {against}" if against else "")
                text += f" ({row.bound_text()})"
                ok = row.passes(ratio)
                lines.append(f"{label:54s} {text:54s} {'ok' if ok else 'FAIL'}")
                if not ok:
                    failures.append(f"{label}: {text}")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=str(REPO_ROOT), metavar="DIR",
        help="directory holding BENCH_<n>.json archives (default: repo root)",
    )
    parser.add_argument("--baseline", default=None, help="explicit baseline file")
    parser.add_argument("--candidate", default=None, help="explicit candidate file")
    args = parser.parse_args(argv)

    files = [path.resolve() for path in bench_files(args.dir)]
    if args.candidate:
        candidate = Path(args.candidate).resolve()
    else:
        candidate = files[-1] if files else None
    if candidate is None:
        print(f"no BENCH_<n>.json in {args.dir}; run benchmarks/run_all.py")
        return 0
    sections = load_sections(candidate)
    if not sections:
        print(f"{candidate} has no machine header (an older archive shape); not gated")
        return 0
    if args.baseline:
        baselines = [Path(args.baseline)]
    else:
        baselines = files[: files.index(candidate)] if candidate in files else files
    baselines = [path for path in baselines if load_sections(path)]
    lines, failures = evaluate(sections, oldest_sections(baselines), table())
    print(f"candidate:   {candidate}  ({describe_env(candidate)})")
    print(f"baselines:   {', '.join(p.name for p in baselines) or '(none yet)'}")
    print("\n".join(lines))
    if failures:
        print("\nFAIL:\n" + "\n".join(f"  - {failure}" for failure in failures))
        return 1
    print("\nPASS: every row of the table holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
