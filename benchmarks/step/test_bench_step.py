"""Smoke test of the DP training-step benchmark (``pytest benchmarks/step``).

One ``--smoke --trace 1`` run per workload (one short untraced round, then
one traced round) must pass every correctness check and report every metric
``BENCHMARK.json`` declares, with the declared unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench_step.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECLARED["workloads"]]


def _final_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Each workload's ``(process, report, output directory)``."""
    out = tmp_path_factory.mktemp("bench_step")
    runs = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH), "--workload", name, "--smoke", "--trace", "1",
             "--out-dir", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        report_path = out / f"report-{name}-trace1.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else None
        runs[name] = (proc, report, out)
    return runs


@pytest.mark.parametrize("name", NAMES)
def test_smoke_passes_every_check(smoke, name):
    proc, report, _ = smoke[name]
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    final = _final_line(proc.stdout)
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    failing = [check for check, ok in report["checks"].items() if not ok]
    assert not failing
    assert report["checks"]["threads_within_nproc"]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_reports_every_declared_metric_with_its_unit(smoke, name):
    proc, report, out = smoke[name]
    measured = report["metrics"]["end_to_end"]
    for spec in DECLARED["end_to_end"]:
        assert measured[spec["name"]]["unit"] == spec["unit"], spec
        assert measured[spec["name"]]["value"] > 0, spec
    final = _final_line(proc.stdout)["metrics"]
    assert sorted(final) == sorted(spec["name"] for spec in DECLARED["per_layer"])
    for spec in DECLARED["per_layer"]:
        assert final[spec["name"]]["unit"] == spec["unit"], spec
    assert (out / f"trace-{name}.json").is_file()


def test_every_declared_per_layer_metric_is_measured_somewhere(smoke):
    # Each per-layer metric is measured on the workloads where its layer
    # runs; the others report it as 0.
    measured = {}
    for _, report, _ in smoke.values():
        measured.update(report["metrics"]["per_layer"])
    for spec in DECLARED["per_layer"]:
        assert spec["name"] in measured, spec["name"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "step")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/step/bench_step.py", "--workload", NAMES[0]],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
