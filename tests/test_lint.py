"""Tier-1 lint gates: ruff, plus an AST allocation check for the hot path.

The ruff gate skips when ruff is not installed (the check then runs
wherever the dev environment provides it); when available, lint errors
fail the suite with ruff's own diagnostics as the assertion message.

The allocation gate is pure stdlib ``ast`` and always runs: the release
hot-path modules must route every buffer through the
:mod:`repro.backend.workspace` arena, so a direct ``np.empty`` /
``np.zeros`` there is a regression of the zero-allocation contract even
when it is numerically harmless.

The GEMM gate is also pure ``ast``: layer code must not spell a matrix
product as a two-operand ``np.einsum``, which numpy runs in its generic
loop instead of BLAS.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Release hot-path modules: all allocation goes through the workspace
#: arena.  ``repro/backend/workspace.py`` (the arena itself) and
#: ``repro/backend/reference.py`` (the serial historical golden, kept
#: byte-for-byte as the parity baseline) are exempt by design.
HOT_PATH_MODULES = (
    "src/repro/core/perturbation.py",
    "src/repro/backend/fused.py",
    "src/repro/backend/cext.py",
)

#: ``np.<name>`` calls that allocate fresh buffers.
FORBIDDEN_ALLOCATORS = frozenset({"empty", "zeros", "empty_like", "zeros_like"})


def _direct_allocations(source: str, filename: str) -> list[str]:
    """``file:line np.<fn>`` for every direct numpy allocation call."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (
            func.attr in FORBIDDEN_ALLOCATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            violations.append(f"{filename}:{node.lineno} np.{func.attr}")
    return violations


def test_hot_path_allocates_only_through_workspace():
    violations = []
    for relative in HOT_PATH_MODULES:
        path = REPO_ROOT / relative
        violations.extend(_direct_allocations(path.read_text(), relative))
    assert violations == [], (
        "direct numpy allocation in a release hot-path module — use "
        "repro.backend.workspace (take/scratch/zeros) instead:\n  "
        + "\n  ".join(violations)
    )


def test_hot_path_module_list_is_current():
    """The lint covers real files (a rename must update the list)."""
    for relative in HOT_PATH_MODULES:
        assert (REPO_ROOT / relative).is_file(), f"{relative} missing"


#: Packages of the DP release pipeline.  Telemetry there observes the one
#: code path; it must never select a different one.
TELEMETRY_OBSERVER_DIRS = ("src/repro/core", "src/repro/sparse")


def _none_checked_names(test: ast.expr) -> set[str]:
    """Lower-cased names / attributes compared against ``None`` in ``test``."""
    names = set()
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            continue
        if not any(isinstance(o, ast.Constant) and o.value is None for o in operands):
            continue
        for operand in operands:
            if isinstance(operand, ast.Name):
                names.add(operand.id.lower())
            elif isinstance(operand, ast.Attribute):
                names.add(operand.attr.lower())
    return names


def _telemetry_forks(source: str, filename: str) -> list[str]:
    """``file:line`` for every ``if`` that branches on recorder *and* tracer."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        names = _none_checked_names(node.test)
        if any("recorder" in n for n in names) and any("tracer" in n for n in names):
            violations.append(f"{filename}:{node.lineno}")
    return violations


def test_telemetry_never_forks_the_release():
    violations = []
    for directory in TELEMETRY_OBSERVER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            relative = str(path.relative_to(REPO_ROOT))
            violations.extend(_telemetry_forks(path.read_text(), relative))
    assert violations == [], (
        "an `if` tests recorder and tracer against None — telemetry must "
        "observe the one release path (maybe_span + `if recorder is not "
        "None` diagnostics), not fork it:\n  " + "\n  ".join(violations)
    )


def test_telemetry_observer_dirs_are_current():
    for directory in TELEMETRY_OBSERVER_DIRS:
        assert (REPO_ROOT / directory).is_dir(), f"{directory} missing"


def test_telemetry_fork_lint_detects_offender():
    """The AST check catches the fork, and only the fork."""
    fork = "if self.recorder is None and self.tracer is None:\n    pass\n"
    assert _telemetry_forks(fork, "x.py") == ["x.py:1"]
    either = "x = 1 if recorder is None or tracer is None else 2\n"
    assert _telemetry_forks(either, "x.py") == ["x.py:1"]
    assert _telemetry_forks("if recorder is not None:\n    pass\n", "x.py") == []


#: Timing-sensitive modules: interval measurements must use the
#: monotonic ``time.perf_counter`` — bare ``time.time()`` is subject to
#: NTP slews/wall-clock jumps and poisons latency metrics and benchmark
#: ratios.  (``time.time()`` stays legal elsewhere, e.g. for timestamps
#: in persisted records.)
TIMING_SENSITIVE_MODULES = HOT_PATH_MODULES + (
    "src/repro/runtime/pool.py",
    "src/repro/service/admission.py",
    "src/repro/service/server.py",
    "src/repro/telemetry/recorder.py",
    "src/repro/telemetry/tracing.py",
    "src/repro/telemetry/live/registry.py",
    "src/repro/telemetry/live/exporter.py",
    "src/repro/telemetry/live/health.py",
    "src/repro/telemetry/live/profiler.py",
    "benchmarks/bench_live.py",
    "benchmarks/bench_telemetry.py",
)


def _wall_clock_calls(source: str, filename: str) -> list[str]:
    """``file:line`` for every bare ``time.time()`` call."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (
            func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            violations.append(f"{filename}:{node.lineno} time.time()")
    return violations


def test_timing_sensitive_modules_use_perf_counter():
    violations = []
    for relative in TIMING_SENSITIVE_MODULES:
        path = REPO_ROOT / relative
        violations.extend(_wall_clock_calls(path.read_text(), relative))
    assert violations == [], (
        "bare time.time() in a timing-sensitive module — use "
        "time.perf_counter() for interval measurement:\n  "
        + "\n  ".join(violations)
    )


def test_timing_sensitive_module_list_is_current():
    for relative in TIMING_SENSITIVE_MODULES:
        assert (REPO_ROOT / relative).is_file(), f"{relative} missing"


def test_wall_clock_lint_detects_offender():
    """The AST check actually catches the pattern it claims to."""
    assert _wall_clock_calls("import time\nt0 = time.time()\n", "x.py") == [
        "x.py:2 time.time()"
    ]
    assert _wall_clock_calls("import time\nt0 = time.perf_counter()\n", "x.py") == []


#: Layer code: a contraction shaped like a matrix product goes to BLAS
#: (``np.matmul`` / ``np.tensordot``), not to numpy's generic einsum loop.
GEMM_LINT_DIR = "src/repro/nn"


def _einsum_is_gemm(subscripts: str) -> bool:
    """Two operands, a summed index, and two or more output indices."""
    inputs, arrow, output = subscripts.replace(" ", "").partition("->")
    operands = inputs.split(",")
    if len(operands) != 2:
        return False
    letters = "".join(operands)
    if not arrow:  # implicit mode: output is the indices used exactly once
        output = "".join(c for c in letters if letters.count(c) == 1)
    summed = set(letters) - set(output)
    return bool(summed) and len(output) >= 2


def _gemm_einsums(source: str, filename: str) -> list[str]:
    """``file:line einsum('...')`` for every GEMM-shaped two-operand einsum."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if not (
            func.attr == "einsum"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            continue
        subscripts = node.args[0].value
        if _einsum_is_gemm(subscripts):
            violations.append(f"{filename}:{node.lineno} einsum({subscripts!r})")
    return violations


def test_layer_contractions_use_blas():
    violations = []
    for path in sorted((REPO_ROOT / GEMM_LINT_DIR).rglob("*.py")):
        relative = str(path.relative_to(REPO_ROOT))
        violations.extend(_gemm_einsums(path.read_text(), relative))
    assert violations == [], (
        "a GEMM-shaped np.einsum in layer code runs numpy's generic loop — "
        "use np.matmul / np.tensordot:\n  " + "\n  ".join(violations)
    )


def test_gemm_lint_dir_is_current():
    assert (REPO_ROOT / GEMM_LINT_DIR).is_dir(), f"{GEMM_LINT_DIR} missing"


def test_gemm_lint_detects_offender():
    """The AST check catches GEMMs and lets per-sample dots and outer
    products through."""
    conv = 'out = np.einsum("ok,bkl->bol", w, cols)\n'
    assert _gemm_einsums(conv, "x.py") == ["x.py:1 einsum('ok,bkl->bol')"]
    assert _gemm_einsums('g = np.einsum("ij,jk", a, b)\n', "x.py") == [
        "x.py:1 einsum('ij,jk')"
    ]
    allowed = (
        'n = np.einsum("bc,bc->b", g, g)\n'
        'w = np.einsum("bi,bo->bio", x, e)\n'
        't = np.einsum("bij->b", g)\n'
        "s = np.einsum(spec, a, b)\n"
    )
    assert _gemm_einsums(allowed, "x.py") == []


def ruff_available() -> bool:
    return importlib.util.find_spec("ruff") is not None


@pytest.mark.skipif(not ruff_available(), reason="ruff is not installed")
def test_ruff_clean():
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, f"ruff found issues:\n{result.stdout}{result.stderr}"
