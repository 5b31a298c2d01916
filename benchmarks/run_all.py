"""Run the library's core micro-benchmarks and archive a perf baseline.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--repeats N] [--out DIR]

Each benchmark is measured for wall time (median of ``--repeats`` runs
after one warm-up) and allocation peak (``tracemalloc``), and the results
are written to ``BENCH_<n>.json`` in the repo root — ``n`` is the first
unused integer, so successive runs accumulate a comparable history.  When
a history exists, the new run is diffed against the oldest archive through
``benchmarks/compare.py`` and regressions (>25% time, >50% peak memory)
fail the run with a nonzero exit::

    {
      "benchmarks": {
        "ghost_clipped_sum": {"seconds": 0.0123, "peak_bytes": 1234567},
        ...
      },
      "backends": {
        "reference": { ... same shape as "benchmarks" ... },
        "fused": { ... },
        "cext": { ... }
      }
    }

The top-level ``benchmarks`` mapping is always the *reference* backend
(back-compatible with pre-backend archives); ``backends`` holds one
section per available :mod:`repro.backend` so each backend is gated
against its own history, and accelerated backends are additionally gated
against the reference section of the same run (see ``compare.py``).  A
``sparse`` section (``bench_sparse.sparse_section``) times the sparse
embedding-scale training step against the dense ghost step; the sparse
step must beat dense at touch rates up to 10% (``compare.gate_sparse``).
A ``service`` section (``bench_service.service_section``) measures
budget-server admission throughput and p95 latency over a mixed
two-tenant stream; ``compare.gate_service`` enforces >= 200 decisions/s
and a 50ms p95 ceiling.  A ``live`` section (``bench_live.live_section``) measures the live
observability layer (registry mirroring + per-step alert evaluation)
against a recorder-only run plus scrape/evaluate p95 latency;
``compare.gate_live`` enforces a 5% overhead ceiling.  The archive header
records ``cpu_count`` and backend availability so regression comparisons
carry their machine context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def build_benchmarks() -> dict:
    """Name -> zero-argument callable for every tracked hot path."""
    from repro.core import perturb_dp_batch, perturb_geodp_batch
    from repro.data import make_mnist_like
    from repro.geometry import (
        canonicalize_angles,
        to_cartesian_batch,
        to_spherical_batch,
    )
    from repro.models import build_cnn
    from repro.privacy.clipping import FlatClipping

    rng = np.random.default_rng(0)
    grads = rng.normal(size=(64, 5000)) * 0.01
    mags, thetas = to_spherical_batch(grads)
    noised = thetas + rng.normal(0.0, 2.0, size=thetas.shape)

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
        "canonicalize_angles": lambda: canonicalize_angles(noised),
        "perturb_dp_batch": lambda: perturb_dp_batch(grads, 0.1, 1.0, 1024, noise_rng),
        "perturb_geodp_batch": lambda: perturb_geodp_batch(
            grads, 0.1, 1.0, 1024, 0.1, noise_rng
        ),
        "materialized_clipped_sum": materialized_clipped_sum,
        "ghost_clipped_sum": ghost_clipped_sum,
    }


def measure(fn, repeats: int) -> dict:
    """Median wall seconds and tracemalloc peak bytes for one callable."""
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
    return {"seconds": float(np.median(times)), "peak_bytes": int(peak)}


def next_output_path(out_dir: Path) -> Path:
    n = 0
    while (out_dir / f"BENCH_{n}.json").exists():
        n += 1
    return out_dir / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per bench")
    parser.add_argument(
        "--out", default=str(REPO_ROOT), metavar="DIR", help="output directory"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    from repro.backend import available_backends, use_backend

    backends = [name for name, ok in available_backends().items() if ok]
    sections: dict[str, dict] = {}
    for backend_name in backends:
        print(f"[backend: {backend_name}]")
        section = {}
        with use_backend(backend_name):
            # Rebuild per backend: setup (spherical decompose of the probe
            # gradients, model state) must run under the measured backend.
            for name, fn in build_benchmarks().items():
                section[name] = measure(fn, args.repeats)
                print(
                    f"  {name:28s} {section[name]['seconds'] * 1e3:9.3f} ms   "
                    f"{section[name]['peak_bytes'] / 2**20:8.2f} MiB peak"
                )
        sections[backend_name] = section

    print("[sparse]")
    from bench_sparse import sparse_section

    sparse = sparse_section(steps=max(args.repeats, 5))
    for name, entry in sparse["benchmarks"].items():
        print(f"  {name:28s} {entry['seconds'] * 1e3:9.3f} ms")

    print("[service]")
    from bench_service import service_section

    service = service_section()
    print(
        f"  {'admission_throughput':28s} "
        f"{service['decisions_per_second']:9.0f} decisions/s"
    )
    for name, entry in service["benchmarks"].items():
        print(f"  {name:28s} {entry['seconds'] * 1e3:9.3f} ms")

    print("[live]")
    from bench_live import live_section

    live = live_section()
    print(f"  {'overhead_fraction':28s} {live['overhead_fraction']:+9.2%}")
    for name, entry in live["benchmarks"].items():
        print(f"  {name:28s} {entry['seconds'] * 1e3:9.3f} ms")

    path = next_output_path(Path(args.out))
    path.write_text(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "repeats": args.repeats,
                # Machine context: regression ratios only mean something
                # between comparable machines.
                "cpu_count": os.cpu_count() or 1,
                "backends_available": available_backends(),
                # Top-level mapping stays the reference backend so old
                # archives (which predate the backend layer) remain
                # comparable baselines.
                "benchmarks": sections["reference"],
                "backends": sections,
                "sparse": sparse,
                "service": service,
                "live": live,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {path}")

    from compare import (
        bench_files,
        compare_files,
        gate_accelerated_file,
        gate_live_file,
        gate_service_file,
        gate_sparse_file,
    )

    ok = True
    history = bench_files(Path(args.out))
    if len(history) > 1:
        report, ok = compare_files(history[0], path)
        print(f"\n{report}")
    gate_report, gate_ok = gate_accelerated_file(path)
    print(f"\n{gate_report}")
    sparse_report, sparse_ok = gate_sparse_file(path)
    print(f"\n{sparse_report}")
    service_report, service_ok = gate_service_file(path)
    print(f"\n{service_report}")
    live_report, live_ok = gate_live_file(path)
    print(f"\n{live_report}")
    return 0 if ok and gate_ok and sparse_ok and service_ok and live_ok else 1


if __name__ == "__main__":
    sys.exit(main())
