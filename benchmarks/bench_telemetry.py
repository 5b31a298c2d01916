"""Telemetry overhead benchmarks.

The recorder sits on the training hot path, so its cost must be noise: the
headline check trains the paper's MNIST-like logistic-regression workload
for 200 DP-SGD iterations with and without a recorder attached and asserts
the instrumented run is less than 5% slower.  Micro-benchmarks cover the
individual recorder operations and one tracer span (the only phase timer).

Measurement notes: on shared machines wall-clock noise is one-sided (CPU
steal only ever slows a chunk down), so a naive A/B comparison of two long
runs is hopelessly biased by whichever run caught the quieter window.  The
two variants are therefore interleaved in small chunks and summarised by
two robust, differently-biased estimators — the ratio of per-variant chunk
minima, and the median of adjacent-pair chunk ratios — and the overhead
claim is checked against the smaller of the two.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core import DpSgdOptimizer, Trainer
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.telemetry import MetricsRecorder, Tracer, export_trace, load_trace

ITERATIONS = 200
BATCH = 512  # paper-style large lots; per-sample work dominates each step
MAX_OVERHEAD = 0.05
MAX_TRACED_OVERHEAD = 0.15  # recorder + lot-granularity span tracing
CHUNK = 5  # iterations per timed chunk; ITERATIONS/CHUNK chunks per variant


@pytest.fixture(scope="module")
def workload():
    data = make_mnist_like(4000, rng=0, size=12)
    train, _ = train_test_split(data, rng=0)
    return train


def _make_trainer(train, telemetry, tracer=None):
    model = build_logistic_regression((1, 12, 12), rng=0)
    optimizer = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2)
    return Trainer(
        model,
        optimizer,
        train,
        batch_size=BATCH,
        rng=1,
        telemetry=telemetry,
        tracer=tracer,
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _interleaved_overhead(bare, instrumented, report, name, label, budget):
    """Interleave the two trainers in chunks; report and bound the overhead."""
    bare.train(CHUNK)
    instrumented.train(CHUNK)  # warm caches before timing

    bare_chunks, inst_chunks = [], []
    for _ in range(ITERATIONS // CHUNK):
        bare_chunks.append(_timed(lambda: bare.train(CHUNK)))
        inst_chunks.append(_timed(lambda: instrumented.train(CHUNK)))

    by_minima = min(inst_chunks) / min(bare_chunks) - 1.0
    by_median = (
        statistics.median(i / b for i, b in zip(inst_chunks, bare_chunks)) - 1.0
    )
    overhead = min(by_minima, by_median)
    report(
        name,
        "\n".join(
            [
                f"{label}, {ITERATIONS}-iteration DP-SGD LR run "
                f"(batch {BATCH}, interleaved {CHUNK}-iteration chunks):",
                f"  bare chunk min:         {min(bare_chunks) * 1e3:.1f} ms",
                f"  instrumented chunk min: {min(inst_chunks) * 1e3:.1f} ms",
                f"  overhead (chunk minima):  {by_minima:+.2%}",
                f"  overhead (median ratio):  {by_median:+.2%}",
                f"  overhead:                 {overhead:+.2%} (budget {budget:.0%})",
            ]
        ),
    )
    assert overhead < budget


def test_recorder_overhead_under_5_percent(workload, report):
    _interleaved_overhead(
        _make_trainer(workload, None),
        _make_trainer(workload, MetricsRecorder()),
        report,
        "bench_telemetry",
        "telemetry overhead",
        MAX_OVERHEAD,
    )


def test_tracing_disabled_overhead_under_5_percent(workload, report):
    """A run-granularity tracer gates every hot-path span with a dict lookup.

    ``granularity="run"`` is tracing in its "installed but disabled" state:
    lot and phase spans never open (one gate check each), tracemalloc is
    off, and only the per-``train()``-call run span survives.  That must
    cost under 5%, like the recorder.
    """
    _interleaved_overhead(
        _make_trainer(workload, None),
        _make_trainer(workload, None, tracer=Tracer(granularity="run")),
        report,
        "bench_tracing_disabled",
        "tracing overhead (granularity='run', tracemalloc off)",
        MAX_OVERHEAD,
    )


def test_tracing_lot_overhead_under_15_percent(workload, report):
    """Recorder plus lot-granularity span tracing stays under 15% overhead."""
    _interleaved_overhead(
        _make_trainer(workload, None),
        _make_trainer(
            workload, MetricsRecorder(), tracer=Tracer(granularity="lot")
        ),
        report,
        "bench_tracing_lot",
        "recorder + tracing overhead (granularity='lot', tracemalloc off)",
        MAX_TRACED_OVERHEAD,
    )


def test_record_point(benchmark):
    recorder = MetricsRecorder()
    benchmark(recorder.record, "loss", 1.0)


def test_span(benchmark):
    tracer = Tracer()

    def spanned():
        with tracer.span("clip"):
            pass
        tracer.spans.clear()  # keep memory flat over the benchmark's rounds

    benchmark(spanned)


def test_full_step_trace(benchmark):
    recorder, tracer = MetricsRecorder(), Tracer()
    iteration = iter(range(10**9))

    def step():
        recorder.start_step(next(iteration))
        recorder.record("loss", 1.0)
        with tracer.span("clip"):
            pass
        recorder.end_step()

    benchmark(step)


def test_export_load_round_trip(benchmark, tmp_path):
    recorder = MetricsRecorder()
    for i in range(1, ITERATIONS + 1):
        recorder.start_step(i)
        for name in ("loss", "clipped_fraction", "angular_deviation"):
            recorder.record(name, float(i))
        recorder.end_step()
    path = tmp_path / "trace.jsonl"

    def round_trip():
        export_trace(path, recorder)
        return load_trace(path)

    loaded = benchmark(round_trip)
    assert np.allclose(loaded.values("loss"), recorder.values("loss"))
