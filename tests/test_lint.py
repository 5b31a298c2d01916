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

The clipping gate keeps one clipping contract: a strategy supplies
``clip_factors`` and inherits the materialized clip, so the materialized,
ghost and sparse paths cannot drift apart.

The pool gate keeps one worker pool: only ``runtime/pool.py`` may import
``multiprocessing`` or ``concurrent.futures``' process pool, so worker
start, crash handling and shutdown live in one module.

The trainer gate keeps each DP-step setting with one owner: the trainers
drive an optimizer through its public methods only, so the optimizer's
internals can change without the trainers following.
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


#: The base clipping class derives these from ``clip_factors``; a strategy
#: that defines its own copy can clip differently on the materialized path
#: than on the ghost and sparse paths, which call ``clip_factors`` directly.
CLIPPING_BASE = "ClippingStrategy"
CLIP_DERIVED_METHODS = frozenset({"clip", "clip_with_norms"})


def _clip_overrides(sources: dict[str, str]) -> list[str]:
    """``file:line Class.method`` for every ``ClippingStrategy`` subclass
    (direct or indirect) that defines a method the base class derives."""
    classes = []
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=filename)):
            if isinstance(node, ast.ClassDef):
                bases = {
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                    for base in node.bases
                }
                classes.append((filename, node, bases))
    strategies = {CLIPPING_BASE}
    grown = True
    while grown:
        found = {node.name for _, node, bases in classes if bases & strategies}
        grown = not found <= strategies
        strategies |= found
    violations = []
    for filename, node, bases in classes:
        if not bases & strategies:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name in CLIP_DERIVED_METHODS:
                violations.append(f"{filename}:{item.lineno} {node.name}.{item.name}")
    return violations


def test_clipping_strategies_supply_only_factors():
    sources = {
        str(path.relative_to(REPO_ROOT)): path.read_text()
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
    }
    assert any(f"class {CLIPPING_BASE}" in text for text in sources.values())
    violations = _clip_overrides(sources)
    assert violations == [], (
        "a clipping strategy re-implements a method ClippingStrategy derives "
        "from clip_factors — define clip_factors only:\n  "
        + "\n  ".join(violations)
    )


def test_clip_contract_lint_detects_offender():
    """The AST check catches direct and indirect subclasses, and only them."""
    offender = (
        "class Base(ClippingStrategy):\n"
        "    def clip_factors(self, norms):\n"
        "        return norms\n"
        "class Mine(Base):\n"
        "    def clip_with_norms(self, grads):\n"
        "        return grads, None\n"
        "class Other(privacy.ClippingStrategy):\n"
        "    def clip(self, grads):\n"
        "        return grads\n"
    )
    assert _clip_overrides({"x.py": offender}) == [
        "x.py:5 Mine.clip_with_norms",
        "x.py:8 Other.clip",
    ]
    unrelated = "class Clipper:\n    def clip(self, grads):\n        return grads\n"
    assert _clip_overrides({"x.py": unrelated}) == []


#: The one module that may start worker processes (:func:`repro.runtime.run_jobs`).
POOL_MODULE = "src/repro/runtime/pool.py"


def _is_process_pool(name: str) -> bool:
    parts = name.split(".")
    return (
        parts[0] == "multiprocessing"
        or "ProcessPoolExecutor" in parts
        or name.startswith("concurrent.futures.process")
    )


def _process_pool_uses(source: str, filename: str) -> list[str]:
    """``file:line name`` for every import of ``multiprocessing`` or of the
    process pool of ``concurrent.futures``, and every attribute access to
    ``ProcessPoolExecutor``."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            names = [node.attr]
        else:
            continue
        violations.extend(
            f"{filename}:{node.lineno} {name}" for name in names if _is_process_pool(name)
        )
    return violations


def test_one_worker_pool():
    violations = []
    for path in sorted((REPO_ROOT / "src/repro").rglob("*.py")):
        relative = str(path.relative_to(REPO_ROOT))
        if relative != POOL_MODULE:
            violations.extend(_process_pool_uses(path.read_text(), relative))
    assert violations == [], (
        f"a process pool outside {POOL_MODULE} — run the work through "
        "repro.runtime.run_jobs:\n  " + "\n  ".join(violations)
    )


def test_pool_module_is_current():
    """The exempt module exists and is the one that starts the workers."""
    path = REPO_ROOT / POOL_MODULE
    assert _process_pool_uses(path.read_text(), POOL_MODULE)


def test_pool_lint_detects_offender():
    """The AST check catches each spelling of a process pool, and only those."""
    offender = (
        "import multiprocessing as mp\n"
        "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
        "from multiprocessing.pool import Pool\n"
        "import concurrent.futures\n"
        "pool = concurrent.futures.ProcessPoolExecutor()\n"
    )
    assert _process_pool_uses(offender, "x.py") == [
        "x.py:1 multiprocessing",
        "x.py:2 concurrent.futures.ProcessPoolExecutor",
        "x.py:3 multiprocessing.pool.Pool",
        "x.py:5 ProcessPoolExecutor",
    ]
    allowed = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "pool = ThreadPoolExecutor()\n"
    )
    assert _process_pool_uses(allowed, "x.py") == []


#: The trainers and the sparse clip and release stages, which use only the
#: public API of the optimizer, the model and its layers.
PUBLIC_API_MODULES = (
    "src/repro/core/trainer.py",
    "src/repro/sparse/trainer.py",
    "src/repro/sparse/pipeline.py",
    "src/repro/sparse/release.py",
)

#: The attributes a trainer may assign on another object: a DP optimizer's
#: telemetry sinks, attached when they are unset.
TRAINER_SINKS = frozenset({"recorder", "tracer"})

#: The local name of the ``TrainingHistory`` a trainer fills in and returns.
TRAINER_HISTORY = "history"


def _reaches_past_public_api(source: str, filename: str) -> list[str]:
    """``file:line what`` for every ``getattr`` / ``hasattr`` / ``setattr``
    call, every read of another object's underscore attribute, and every
    assignment to another object's attribute but a sink or the history's."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("getattr", "hasattr", "setattr"):
                found.append((node.lineno, f"{node.func.id}()"))
        elif isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner == "self":
                continue
            if isinstance(node.ctx, ast.Store):
                if node.attr not in TRAINER_SINKS and owner != TRAINER_HISTORY:
                    found.append((node.lineno, f"{owner}.{node.attr} ="))
            elif node.attr.startswith("_") and not node.attr.endswith("__"):
                found.append((node.lineno, f"{owner}.{node.attr}"))
    return [f"{filename}:{line} {what}" for line, what in sorted(found)]


def test_trainers_use_public_optimizer_api():
    violations = []
    for relative in PUBLIC_API_MODULES:
        source = (REPO_ROOT / relative).read_text()
        violations.extend(_reaches_past_public_api(source, relative))
    assert violations == [], (
        "a trainer or sparse stage reaches past a public API — add a public "
        "method or move the setting to its owner:\n  " + "\n  ".join(violations)
    )


def test_public_api_lint_detects_offender():
    """The AST check flags probes, private reads and foreign assignments,
    and passes sinks, the history, dunders and the trainer's own state."""
    offender = (
        "def step(self, optimizer, history):\n"
        "    mode = getattr(optimizer, 'grad_mode', 'materialize')\n"
        "    inner = optimizer.optimizer\n"
        "    inner.lot_size = self.batch_size\n"
        "    velocity = inner._velocity.copy()\n"
        "    optimizer.recorder = self._recorder\n"
        "    history.iterations = type(optimizer).__name__\n"
        "    self._mode = super().__init__\n"
    )
    assert _reaches_past_public_api(offender, "x.py") == [
        "x.py:2 getattr()",
        "x.py:4 inner.lot_size =",
        "x.py:5 inner._velocity",
    ]


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
