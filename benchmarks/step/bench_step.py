"""End-to-end DP training-step benchmark with per-layer attribution.

Run from the repository root, one workload per process::

    python3 benchmarks/step/bench_step.py --workload NAME [--seed N]
        [--seconds S] [--trace {0,1}] [--smoke] [--out-dir DIR]

It trains one of the four workloads of ``step_workloads.py``, times each DP
step end to end, checks that the outputs are correct, and prints every
metric by name and unit.  ``--seconds`` sizes the rounds from each
workload's nominal step time, so the same value always times the same
steps.  ``--trace 1`` replaces the timed rounds with one untraced and one
traced round, whose spans attribute each step to modules and model layers,
and writes a Chrome trace.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics declared in
the repository's ``BENCHMARK.json`` (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).  The exit code is 0 only when every check
passed.

The benchmark pins its own environment before numpy loads: one BLAS
thread, one kernel thread (``REPRO_THREADS=1``), the ``auto`` kernel
backend, and a temporary directory inside the checkout for the C kernel
build.  See ``README.md`` next to this file for the workloads, the metrics
and how to read the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = ROOT / ".bench_build" / "step"

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_THREADS": "1",
    "REPRO_BACKEND": "auto",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="nominal timed seconds of the run"
    )
    parser.add_argument(
        "--trace", type=int, default=0, choices=(0, 1),
        help="1: one untraced and one traced round, reporting per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="one short round")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"bench_step: no package sources at {src / 'repro'}", file=sys.stderr)
        return 2
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        print(f"bench_step: {declared_path} is missing", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())

    out_dir = args.out_dir.resolve()
    tmp = ROOT / ".bench_build" / "tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    # Before numpy is imported, so BLAS starts with one thread; TMPDIR keeps
    # the C compiler's temporaries inside the checkout.
    os.environ.update(PINNED_ENV, TMPDIR=str(tmp))
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    from repro.backend import get_backend

    get_backend()  # resolves "auto"; compiles the C kernels on first use
    backend_init_s = time.perf_counter() - start

    import step_runner
    from step_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"bench_step: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    return step_runner.run(args, declared, backend_init_s, out_dir)


if __name__ == "__main__":
    sys.exit(main())
