"""Tests for the benchmark archive gate (``benchmarks/compare.py``).

``benchmarks/`` is not a package, so the module is loaded by file path."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

_COMPARE = Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE)
compare = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)  # dataclasses look their module up by name


def _m(value, unit="s"):
    return {"value": value, "unit": unit}


def _kernel(seconds, peak=1000):
    return {"k_s": _m(seconds), "k_peak_bytes": _m(peak, "bytes")}


def _judge(candidate, baseline=None):
    return compare.evaluate(candidate, baseline or {}, compare.table())


MACHINE = {
    "python": "3.11.7", "numpy": "2.4.6", "cpu_count": 2, "repeats": 5,
    "run_seconds": 15, "backends_available": {"reference": True, "cext": True},
}


def _archive(path: Path, step_s: float) -> Path:
    """A minimal archive in the sectioned shape, as ``run_all.py`` writes it."""
    run = {
        "correct": True, "attempted": 5, "failed": 0,
        "metrics": {"step_s_p50": _m(step_s)}, "round_step_s_p50": [step_s] * 5,
    }
    path.write_text(json.dumps({"machine": MACHINE, "step": {"w": run}}))
    return path


class TestCompare:
    """History rows: kernel time +25% and peak +50% over the baseline."""

    def test_within_budget_passes(self):
        base = {"kernels/reference": _kernel(1.0, 1000)}
        lines, failures = _judge({"kernels/reference": _kernel(1.2, 1400)}, base)
        assert failures == []
        assert any(line.endswith("ok") for line in lines)

    def test_time_regression_flagged(self):
        base = {"kernels/reference": _kernel(1.0)}
        _, failures = _judge({"kernels/reference": _kernel(1.3)}, base)
        assert failures == ["kernels/reference k_s: 1.3x baseline (<= 1.25)"]

    def test_memory_regression_flagged(self):
        base = {"kernels/reference": _kernel(0.5, 500)}
        _, failures = _judge({"kernels/reference": _kernel(0.5, 800)}, base)
        assert failures == ["kernels/reference k_peak_bytes: 1.6x baseline (<= 1.5)"]

    def test_new_and_missing_benchmarks_never_fail(self):
        base = {"kernels/reference": _kernel(1.0), "step/gone": {"step_s_p50": _m(1.0)}}
        candidate = {"kernels/reference": {"new_s": _m(9.0)}, "step/new": {"step_s_p50": _m(9.0)}}
        lines, failures = _judge(candidate, base)
        assert failures == []
        assert sum("no baseline value" in line for line in lines) == 2

    def test_bench_files_sorted_numerically(self, tmp_path):
        for n in (10, 0, 2):
            _archive(tmp_path / f"BENCH_{n}.json", 1.0)
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored: not numbered
        names = [p.name for p in compare.bench_files(tmp_path)]
        assert names == ["BENCH_0.json", "BENCH_2.json", "BENCH_10.json"]


class TestMinTimeFloor:
    """Sub-millisecond baselines are floored before computing time ratios."""

    def test_floor_constant(self):
        assert compare.MIN_TIME_SECONDS == 1e-3

    def test_jitter_on_fast_kernels_never_fails(self):
        # 5x "regression" of a 0.1 ms kernel is timer noise: 0.5 ms is
        # still under the 1 ms floor, so the ratio is 0.5x, not 5x.
        lines, failures = _judge({"kernels/f": _kernel(5e-4)}, {"kernels/f": _kernel(1e-4)})
        assert failures == []
        assert any("0.5x baseline" in line for line in lines)

    def test_real_regressions_of_fast_kernels_still_fail(self):
        _, failures = _judge({"kernels/f": _kernel(1e-2)}, {"kernels/f": _kernel(1e-4)})
        assert failures == ["kernels/f k_s: 10x baseline (<= 1.25)"]

    def test_slow_kernels_use_their_true_baseline(self):
        _, failures = _judge({"kernels/f": _kernel(1.3)}, {"kernels/f": _kernel(1.0)})
        assert failures == ["kernels/f k_s: 1.3x baseline (<= 1.25)"]


class TestGateAccelerated:
    """Accelerated backends against the reference backend of the same run."""

    def test_headline_kernels_must_beat_reference(self):
        candidate = {
            f"kernels/{backend}": {"perturb_geodp_batch_s": _m(seconds)}
            for backend, seconds in (("reference", 0.01), ("fused", 0.01), ("cext", 0.013))
        }
        lines, failures = _judge(candidate)
        # A tie fails; 1.3x fails once, by the headline row that matches first.
        assert failures == [
            "kernels/cext perturb_geodp_batch_s: "
            "1.3x kernels/reference perturb_geodp_batch_s (< 1)",
            "kernels/fused perturb_geodp_batch_s: "
            "1x kernels/reference perturb_geodp_batch_s (< 1)",
        ]
        # The reference backend is never judged against itself.
        assert not any(line.startswith("kernels/reference ") and "x kernels/" in line
                       for line in lines)

    def test_other_kernels_may_cost_up_to_25_percent_more(self):
        candidate = {
            f"kernels/{backend}": {"to_spherical_batch_s": _m(seconds)}
            for backend, seconds in (("reference", 0.01), ("fused", 0.0125), ("cext", 0.013))
        }
        _, failures = _judge(candidate)
        assert len(failures) == 1 and failures[0].startswith("kernels/cext ")


def _sparse(dense: float, sparse: float, touch_rate: float) -> dict:
    return {"sparse": {
        "touch_rate": _m(touch_rate, "ratio"), "dense_step_s": _m(dense),
        "sparse_step_s": _m(sparse),
    }}


class TestGateSparse:
    def test_sparse_beats_dense_passes(self):
        lines, failures = _judge(_sparse(0.05, 0.002, 0.01))
        assert failures == []
        assert any("sparse_step_s" in line and line.endswith("ok") for line in lines)

    def test_sparse_slower_than_dense_fails(self):
        _, failures = _judge(_sparse(0.01, 0.02, 0.01))
        assert failures == ["sparse sparse_step_s: 2x sparse dense_step_s (< 1)"]

    def test_high_touch_rate_skips_gate(self):
        # At 50% touch the dense path may legitimately win; never fail.
        lines, failures = _judge(_sparse(0.01, 0.02, 0.5))
        assert failures == []
        assert any("skipped (touch_rate > 0.1)" in line for line in lines)

    def test_missing_section_skips_gate(self):
        lines, failures = _judge(_service(5000.0, 0.001))
        assert failures == [] and not any("sparse" in line for line in lines)


def _service(per_second: float, p95: float) -> dict:
    return {"service": {"decisions_per_s": _m(per_second, "1/s"), "admission_p95_s": _m(p95)}}


class TestGateService:
    def test_fast_admission_passes(self):
        lines, failures = _judge(_service(5000.0, 0.001))
        assert failures == [] and len(lines) == 2

    def test_slow_throughput_fails(self):
        _, failures = _judge(_service(150.0, 0.001))
        assert failures == ["service decisions_per_s: 150 (>= 200)"]

    def test_high_p95_fails(self):
        _, failures = _judge(_service(5000.0, 0.2))
        assert failures == ["service admission_p95_s: 0.2 (<= 0.05)"]

    def test_missing_section_skips_gate(self):
        assert _judge(_sparse(0.05, 0.002, 0.01))[1] == []

    def test_incomplete_section_skips_gate(self):
        assert _judge({"service": {"decisions": _m(10, "count")}}) == ([], [])


def _live(overhead=0.01, evaluate_p95=0.001, render_p95=0.002) -> dict:
    return {"live": {
        "overhead": _m(overhead, "ratio"), "evaluate_p95_s": _m(evaluate_p95),
        "render_p95_s": _m(render_p95),
    }}


class TestGateLive:
    def test_cheap_live_layer_passes(self):
        lines, failures = _judge(_live())
        assert failures == [] and len(lines) == 3

    def test_high_overhead_fails(self):
        _, failures = _judge(_live(overhead=0.2))
        assert failures == ["live overhead: 0.2 (< 0.05)"]

    def test_slow_scrape_fails(self):
        _, failures = _judge(_live(render_p95=0.5))
        assert failures == ["live render_p95_s: 0.5 (<= 0.05)"]

    def test_slow_evaluation_fails(self):
        _, failures = _judge(_live(evaluate_p95=0.5))
        assert failures == ["live evaluate_p95_s: 0.5 (<= 0.05)"]

    def test_missing_section_skips_gate(self):
        assert _judge(_service(5000.0, 0.001))[1] == []

    def test_incomplete_section_skips_gate(self):
        assert _judge({"live": {}}) == ([], [])


class TestTable:
    def test_fixed_bounds_pinned(self):
        pinned = [
            (row.section, row.metric, row.reference, row.limit, row.better, row.strict,
             row.floor, row.guard)
            for row in compare.FIXED_ROWS
        ]
        reference = "kernels/reference:"
        assert pinned == [
            ("kernels/*", "*_s", "baseline", 1.25, "lower", False, 1e-3, None),
            ("kernels/*", "*_peak_bytes", "baseline", 1.5, "lower", False, 0.0, None),
            ("kernels/*", "perturb_geodp_batch_s", reference, 1.0, "lower", True, 0.0, None),
            ("kernels/*", "ghost_clipped_sum_s", reference, 1.0, "lower", True, 0.0, None),
            ("kernels/*", "*_s", reference, 1.25, "lower", False, 0.0, None),
            ("sparse", "sparse_step_s", ":dense_step_s", 1.0, "lower", True, 0.0,
             ("touch_rate", 0.1)),
            ("service", "decisions_per_s", None, 200.0, "higher", False, 0.0, None),
            ("service", "admission_p95_s", None, 0.05, "lower", False, 0.0, None),
            ("live", "overhead", None, 0.05, "lower", True, 0.0, None),
            ("live", "*_p95_s", None, 0.05, "lower", False, 0.0, None),
        ]

    def test_step_rows_read_from_benchmark_json(self, tmp_path, monkeypatch):
        declared = json.loads((compare.REPO_ROOT / "BENCHMARK.json").read_text())
        rows = [row for row in compare.table() if row.section == "step/*"]
        assert [row.metric for row in rows] == [m["name"] for m in declared["end_to_end"]]
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "x_s", "better": "lower", "bound": 0.5},
            {"name": "y_per_s", "better": "higher", "bound": 0.4},
        ]}))
        monkeypatch.setattr(compare, "REPO_ROOT", tmp_path)
        assert compare.table()[:2] == [
            compare.Row("step/*", "x_s", 1.5),
            compare.Row("step/*", "y_per_s", 0.6, better="higher"),
        ]

    @pytest.mark.parametrize(
        "row", compare.table(),
        ids=lambda row: re.sub(r"\W+", "-", f"{row.section} {row.metric} {row.reference}"),
    )
    def test_every_row_passes_and_fails(self, row):
        section, metric = row.section.replace("*", "x"), row.metric.replace("*", "x")

        def failures(ratio):
            candidate, baseline = {section: {metric: _m(ratio * 2.0)}}, {}
            if row.reference is None:
                candidate[section][metric] = _m(ratio)
            elif row.reference == "baseline":
                baseline = {section: {metric: _m(2.0)}}
            else:
                ref_section, _, ref_metric = row.reference.partition(":")
                candidate.setdefault(ref_section or section, {})[ref_metric or metric] = _m(2.0)
            if row.guard:
                candidate[section][row.guard[0]] = _m(row.guard[1])
            return compare.evaluate(candidate, baseline, [row])[1]

        inside, outside = (0.99, 1.01) if row.better == "lower" else (1.01, 0.99)
        assert failures(row.limit * inside) == []
        assert len(failures(row.limit * outside)) == 1


class TestDescribeEnv:
    def test_new_archives_surface_machine_context(self, tmp_path):
        env = compare.describe_env(_archive(tmp_path / "BENCH_3.json", 1.0))
        assert env == "cpu_count=2  python=3.11.7  numpy=2.4.6  backends=cext,reference"

    def test_old_archives_yield_empty_context(self, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(json.dumps({"benchmarks": {}, "cpu_count": 8, "num_threads": 4}))
        assert compare.describe_env(path) == ""


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert compare.main(["--dir", str(tmp_path)]) == 0  # no archive yet
        assert "no BENCH_<n>.json" in capsys.readouterr().out

        _archive(tmp_path / "BENCH_0.json", 1.0)
        assert compare.main(["--dir", str(tmp_path)]) == 0
        assert "no baseline value" in capsys.readouterr().out

        _archive(tmp_path / "BENCH_1.json", 1.2)  # +20% <= the declared 25%
        assert compare.main(["--dir", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

        _archive(tmp_path / "BENCH_2.json", 2.0)
        assert compare.main(["--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "step/w step_s_p50: 2x baseline (<= 1.25)" in out

    def test_explicit_files(self, tmp_path, capsys):
        a = _archive(tmp_path / "a.json", 1.0)
        b = _archive(tmp_path / "b.json", 1.3)
        assert compare.main(["--baseline", str(b), "--candidate", str(a)]) == 0
        assert compare.main(["--baseline", str(a), "--candidate", str(b)]) == 1
        capsys.readouterr()

    def test_old_shape_archives_are_skipped(self, tmp_path, capsys):
        old = tmp_path / "BENCH_0.json"
        old.write_text((compare.REPO_ROOT / "BENCH_2.json").read_text())
        assert compare.main(["--dir", str(tmp_path)]) == 0
        assert "not gated" in capsys.readouterr().out

        _archive(tmp_path / "BENCH_1.json", 1.0)
        assert compare.load_sections(old) == {}
        assert compare.main(["--dir", str(tmp_path)]) == 0
        assert "baselines:   (none yet)" in capsys.readouterr().out
