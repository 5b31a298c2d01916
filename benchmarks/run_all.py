"""Archive one benchmark run as the next ``BENCH_<n>.json`` and gate it.

Usage::

    python3 benchmarks/run_all.py [--repeats N] [--out DIR]

The archive is written to ``DIR`` (default: the repo root) as
``BENCH_<n>.json``, ``n`` the first unused integer.  Every section is a
``{metric: {"value", "unit"}}`` mapping, each value stored once:

- ``step``: each workload of ``BENCHMARK.json``, run in its own process
  through the declared command with ``--workload W --seconds
  <run_seconds>``.  A workload keeps the command's final JSON line
  (``correct``, ``attempted``, ``failed`` and the end-to-end ``metrics``)
  and ``round_step_s_p50``, the per-round medians from its report file.
  The command exits nonzero unless every correctness check passed; that
  stops the run before anything is written.
- ``kernels``: per available :mod:`repro.backend`, seven hot-path kernels
  at (64, 5000), as the median wall seconds of ``--repeats`` runs after a
  warm-up (``<kernel>_s``) and the ``tracemalloc`` peak of one more run
  (``<kernel>_peak_bytes``).
- ``sparse``, ``service`` and ``live``: what the step workloads do not
  measure, from ``bench_sparse.sparse_section``,
  ``bench_service.service_section`` and ``bench_live.live_section``.

The ``machine`` header names the machine and marks the archive shape.
The new archive is then gated by ``compare.py`` against the archives
before it, and the exit code is its verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def run_step(declared: dict, workload: str, out_dir: Path) -> dict:
    """One step workload through the declared command, as its archive entry."""
    command = [
        *declared["command"], "--workload", workload,
        "--seconds", str(declared["run_seconds"]), "--out-dir", str(out_dir),
    ]
    proc = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}")
    entry = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((out_dir / f"report-{workload}-trace0.json").read_text())
    entry["round_step_s_p50"] = [r["step_s_p50"] for r in report["rounds"]]
    return entry


def build_benchmarks() -> dict:
    """Name -> zero-argument callable for every tracked hot path."""
    from repro.core import perturb_dp_batch, perturb_geodp_batch
    from repro.data import make_mnist_like
    from repro.geometry import to_cartesian_batch, to_spherical_batch
    from repro.models import build_cnn
    from repro.privacy.clipping import FlatClipping

    rng = np.random.default_rng(0)
    grads = rng.normal(size=(64, 5000)) * 0.01
    mags, thetas = to_spherical_batch(grads)

    batch = 64
    data = make_mnist_like(batch, rng=0, size=16)
    model = build_cnn((1, 16, 16), num_classes=100, channels=(16, 32), rng=0)
    y = np.random.default_rng(1).integers(0, 100, size=batch)
    noise_rng = np.random.default_rng(2)

    def materialized_clipped_sum():
        _, per_sample = model.loss_and_per_sample_gradients(data.x, y)
        return FlatClipping(1.0).clip(per_sample).sum(axis=0)

    def ghost_clipped_sum():
        _, summed, _ = model.loss_and_clipped_grad_sum(data.x, y, FlatClipping(1.0))
        return summed

    return {
        "to_spherical_batch": lambda: to_spherical_batch(grads),
        "to_cartesian_batch": lambda: to_cartesian_batch(mags, thetas),
        "perturb_dp_batch": lambda: perturb_dp_batch(grads, 0.1, 1.0, 1024, noise_rng),
        "perturb_geodp_batch": lambda: perturb_geodp_batch(
            grads, 0.1, 1.0, 1024, 0.1, noise_rng
        ),
        "materialized_clipped_sum": materialized_clipped_sum,
        "ghost_clipped_sum": ghost_clipped_sum,
    }


def measure(name: str, fn, repeats: int) -> dict:
    """Median wall seconds and tracemalloc peak bytes of one callable."""
    fn()  # warm-up outside the timed region
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        f"{name}_s": {"value": float(np.median(times)), "unit": "s"},
        f"{name}_peak_bytes": {"value": peak, "unit": "bytes"},
    }


def next_output_path(out_dir: Path) -> Path:
    n = 0
    while (out_dir / f"BENCH_{n}.json").exists():
        n += 1
    return out_dir / f"BENCH_{n}.json"


def print_section(name: str, metrics: dict) -> None:
    print(f"[{name}]")
    for metric, entry in metrics.items():
        print(f"  {metric:36s} {entry['value']:>14.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per kernel")
    parser.add_argument(
        "--out", default=str(REPO_ROOT), metavar="DIR", help="output directory"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    step = {}
    with tempfile.TemporaryDirectory() as reports:
        for spec in declared["workloads"]:
            step[spec["name"]] = run_step(declared, spec["name"], Path(reports))
            print_section(f"step/{spec['name']}", step[spec["name"]]["metrics"])

    from repro.backend import available_backends, use_backend

    kernels = {}
    for backend in [name for name, ok in available_backends().items() if ok]:
        kernels[backend] = {}
        with use_backend(backend):
            # Rebuilt per backend: set-up (the spherical decompose of the
            # probe gradients, model state) runs under the measured backend.
            for name, fn in build_benchmarks().items():
                kernels[backend].update(measure(name, fn, args.repeats))
        print_section(f"kernels/{backend}", kernels[backend])

    from bench_live import live_section
    from bench_service import service_section
    from bench_sparse import sparse_section

    archive = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count() or 1,
            "backends_available": available_backends(),
            "repeats": args.repeats,
            "run_seconds": declared["run_seconds"],
        },
        "step": step,
        "kernels": kernels,
        "sparse": sparse_section(steps=max(args.repeats, 5)),
        "service": service_section(),
        "live": live_section(),
    }
    for name in ("sparse", "service", "live"):
        print_section(name, archive[name])

    path = next_output_path(Path(args.out))
    path.write_text(json.dumps(archive, indent=1) + "\n")
    print(f"wrote {path}\n")

    import compare

    return compare.main(["--dir", args.out, "--candidate", str(path)])


if __name__ == "__main__":
    sys.exit(main())
