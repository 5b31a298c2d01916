"""Smoke test for the perf-regression gate (``benchmarks/compare.py``).

``benchmarks/`` is not a package, so the module is loaded by file path."""

import importlib.util
import json
from pathlib import Path

import pytest

_COMPARE = Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"


@pytest.fixture(scope="module")
def compare_mod():
    spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _archive(path: Path, benchmarks: dict) -> Path:
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


BASE = {
    "clip": {"seconds": 1.0, "peak_bytes": 1000},
    "noise": {"seconds": 0.5, "peak_bytes": 500},
}


class TestCompare:
    def test_within_budget_passes(self, compare_mod):
        candidate = {
            "clip": {"seconds": 1.2, "peak_bytes": 1400},  # +20% time, +40% mem
            "noise": {"seconds": 0.5, "peak_bytes": 500},
        }
        lines, failures = compare_mod.compare(BASE, candidate)
        assert failures == []
        assert any("ok" in line for line in lines)

    def test_time_regression_flagged(self, compare_mod):
        candidate = {"clip": {"seconds": 1.3, "peak_bytes": 1000}}  # +30% > 25%
        _, failures = compare_mod.compare(BASE, candidate)
        assert failures == ["clip: time 1.30x baseline"]

    def test_memory_regression_flagged(self, compare_mod):
        candidate = {"noise": {"seconds": 0.5, "peak_bytes": 800}}  # +60% > 50%
        _, failures = compare_mod.compare(BASE, candidate)
        assert failures == ["noise: peak memory 1.60x baseline"]

    def test_new_and_missing_benchmarks_never_fail(self, compare_mod):
        lines, failures = compare_mod.compare(
            BASE, {"brand_new": {"seconds": 9.0, "peak_bytes": 9}}
        )
        assert failures == []
        assert any("new benchmark" in line for line in lines)
        assert any("missing from candidate" in line for line in lines)

    def test_bench_files_sorted_numerically(self, compare_mod, tmp_path):
        for n in (10, 0, 2):
            _archive(tmp_path / f"BENCH_{n}.json", BASE)
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored: not numbered
        names = [p.name for p in compare_mod.bench_files(tmp_path)]
        assert names == ["BENCH_0.json", "BENCH_2.json", "BENCH_10.json"]


class TestMain:
    def test_exit_codes(self, compare_mod, tmp_path, capsys):
        _archive(tmp_path / "BENCH_0.json", BASE)
        assert compare_mod.main(["--dir", str(tmp_path)]) == 0  # too few files
        assert "at least two" in capsys.readouterr().out

        _archive(tmp_path / "BENCH_1.json", BASE)
        assert compare_mod.main(["--dir", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

        _archive(
            tmp_path / "BENCH_2.json",
            {"clip": {"seconds": 2.0, "peak_bytes": 1000}},
        )
        assert compare_mod.main(["--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "TIME REGRESSION" in out

    def test_explicit_files_and_thresholds(self, compare_mod, tmp_path, capsys):
        a = _archive(tmp_path / "BENCH_0.json", BASE)
        b = _archive(
            tmp_path / "BENCH_1.json", {"clip": {"seconds": 1.2, "peak_bytes": 1000}}
        )
        assert (
            compare_mod.main(
                ["--baseline", str(a), "--candidate", str(b),
                 "--max-time-regression", "0.1"]
            )
            == 1
        )
        capsys.readouterr()


def _sparse_section(dense: float, sparse: float, touch_rate: float) -> dict:
    return {
        "vocab_size": 100_000,
        "touch_rate": touch_rate,
        "benchmarks": {
            "dense_step": {"seconds": dense},
            "sparse_step": {"seconds": sparse},
        },
    }


class TestGateSparse:
    def test_sparse_beats_dense_passes(self, compare_mod):
        lines, failures = compare_mod.gate_sparse(_sparse_section(0.05, 0.002, 0.01))
        assert failures == []
        assert any("beats dense" in line for line in lines)

    def test_sparse_slower_than_dense_fails(self, compare_mod):
        _, failures = compare_mod.gate_sparse(_sparse_section(0.01, 0.02, 0.01))
        assert len(failures) == 1
        assert "must be < 1.00x" in failures[0]

    def test_high_touch_rate_skips_gate(self, compare_mod):
        # At 50% touch the dense path may legitimately win; never fail.
        lines, failures = compare_mod.gate_sparse(_sparse_section(0.01, 0.02, 0.5))
        assert failures == []
        assert any("gate skipped" in line for line in lines)

    def test_missing_section_skips_gate(self, compare_mod):
        lines, failures = compare_mod.gate_sparse(None)
        assert failures == []
        assert any("skipped" in line for line in lines)

    def test_gate_sparse_file(self, compare_mod, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(
            json.dumps(
                {"benchmarks": BASE, "sparse": _sparse_section(0.05, 0.002, 0.01)}
            )
        )
        report, ok = compare_mod.gate_sparse_file(path)
        assert ok and "PASS" in report
        path.write_text(
            json.dumps(
                {"benchmarks": BASE, "sparse": _sparse_section(0.01, 0.02, 0.01)}
            )
        )
        report, ok = compare_mod.gate_sparse_file(path)
        assert not ok and "FAIL" in report


def _service_section(per_second: float, p95: float) -> dict:
    return {
        "decisions": 500,
        "decisions_per_second": per_second,
        "p95_latency_seconds": p95,
        "benchmarks": {"admission_decision_p95": {"seconds": p95}},
    }


class TestGateService:
    def test_fast_admission_passes(self, compare_mod):
        lines, failures = compare_mod.gate_service(_service_section(5000.0, 0.001))
        assert failures == []
        assert all("FAIL" not in line for line in lines)

    def test_slow_throughput_fails(self, compare_mod):
        _, failures = compare_mod.gate_service(_service_section(150.0, 0.001))
        assert len(failures) == 1
        assert "decisions/s" in failures[0]

    def test_high_p95_fails(self, compare_mod):
        _, failures = compare_mod.gate_service(_service_section(5000.0, 0.2))
        assert len(failures) == 1
        assert "p95" in failures[0]

    def test_missing_section_skips_gate(self, compare_mod):
        lines, failures = compare_mod.gate_service(None)
        assert failures == []
        assert any("skipped" in line for line in lines)

    def test_incomplete_section_skips_gate(self, compare_mod):
        lines, failures = compare_mod.gate_service({"decisions": 10})
        assert failures == []
        assert any("skipped" in line for line in lines)

    def test_gate_service_file(self, compare_mod, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(
            json.dumps(
                {"benchmarks": BASE, "service": _service_section(5000.0, 0.001)}
            )
        )
        report, ok = compare_mod.gate_service_file(path)
        assert ok and "PASS" in report
        path.write_text(
            json.dumps({"benchmarks": BASE, "service": _service_section(10.0, 0.2)})
        )
        report, ok = compare_mod.gate_service_file(path)
        assert not ok and "FAIL" in report


class TestMinTimeFloor:
    """Sub-millisecond baselines are floored before computing time ratios."""

    def test_floor_constant(self, compare_mod):
        assert compare_mod.MIN_TIME_SECONDS == 1e-3

    def test_jitter_on_fast_kernels_never_fails(self, compare_mod):
        # 5x "regression" of a 0.1 ms kernel is timer noise: 0.5 ms is
        # still under the 1 ms floor, so the ratio is 0.5x, not 5x.
        base = {"fast": {"seconds": 1e-4, "peak_bytes": 100}}
        cand = {"fast": {"seconds": 5e-4, "peak_bytes": 100}}
        lines, failures = compare_mod.compare(base, cand)
        assert failures == []
        assert any("ok" in line for line in lines)

    def test_real_regressions_of_fast_kernels_still_fail(self, compare_mod):
        base = {"fast": {"seconds": 1e-4, "peak_bytes": 100}}
        cand = {"fast": {"seconds": 1e-2, "peak_bytes": 100}}  # 10x the floor
        _, failures = compare_mod.compare(base, cand)
        assert failures == ["fast: time 10.00x baseline"]

    def test_slow_kernels_use_their_true_baseline(self, compare_mod):
        base = {"slow": {"seconds": 1.0, "peak_bytes": 100}}
        cand = {"slow": {"seconds": 1.3, "peak_bytes": 100}}
        _, failures = compare_mod.compare(base, cand)
        assert failures == ["slow: time 1.30x baseline"]


class TestDescribeEnv:
    def test_new_archives_surface_machine_context(self, compare_mod, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": BASE,
                    "cpu_count": 8,
                    "num_threads": 4,
                    "backends_available": {"reference": True, "cext": True,
                                           "numba": False, "fused": True},
                }
            )
        )
        env = compare_mod.describe_env(path)
        assert "cpu_count=8" in env and "num_threads=4" in env
        assert "backends=cext,fused,reference" in env

    def test_old_archives_yield_empty_context(self, compare_mod, tmp_path):
        path = _archive(tmp_path / "BENCH_0.json", BASE)
        assert compare_mod.describe_env(path) == ""


def _live_section(overhead=0.01, evaluate_p95=0.001, render_p95=0.002):
    return {
        "overhead_fraction": overhead,
        "evaluate_p95_seconds": evaluate_p95,
        "render_p95_seconds": render_p95,
        "benchmarks": {"prometheus_render_p95": {"seconds": render_p95}},
    }


class TestGateLive:
    def test_cheap_live_layer_passes(self, compare_mod):
        lines, failures = compare_mod.gate_live(_live_section())
        assert failures == []
        assert all("FAIL" not in line for line in lines)

    def test_high_overhead_fails(self, compare_mod):
        _, failures = compare_mod.gate_live(_live_section(overhead=0.2))
        assert len(failures) == 1
        assert "overhead" in failures[0]

    def test_slow_scrape_fails(self, compare_mod):
        _, failures = compare_mod.gate_live(_live_section(render_p95=0.5))
        assert len(failures) == 1
        assert "render" in failures[0]

    def test_slow_evaluation_fails(self, compare_mod):
        _, failures = compare_mod.gate_live(_live_section(evaluate_p95=0.5))
        assert len(failures) == 1
        assert "evaluation" in failures[0]

    def test_missing_section_skips_gate(self, compare_mod):
        lines, failures = compare_mod.gate_live(None)
        assert failures == []
        assert any("skipped" in line for line in lines)

    def test_incomplete_section_skips_gate(self, compare_mod):
        lines, failures = compare_mod.gate_live({"benchmarks": {}})
        assert failures == []
        assert any("skipped" in line for line in lines)

    def test_gate_live_file(self, compare_mod, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(json.dumps({"benchmarks": BASE, "live": _live_section()}))
        report, ok = compare_mod.gate_live_file(path)
        assert ok and "PASS" in report
        path.write_text(
            json.dumps({"benchmarks": BASE, "live": _live_section(overhead=0.3)})
        )
        report, ok = compare_mod.gate_live_file(path)
        assert not ok and "FAIL" in report
