"""Live observability overhead benchmarks.

The live layer (the bound recorder pushing each new point into a
:class:`MetricsRegistry`, plus per-step HealthMonitor evaluation)
attaches to an already-instrumented run, so its budget is measured
*relative to a recorder-only run*: the same interleaved-chunk protocol as
``bench_telemetry`` (two robust, differently-biased estimators; overhead
checked against the smaller) trains the paper's MNIST-like workload with
a plain recorder vs a recorder bound to a :class:`MetricsRegistry` with
the default alert rules evaluated every step, and asserts the live run
is less than 5% slower in steady state.  Binding is forward-only: nothing
the recorder held before the bind is published.

``live_section()`` packages the overhead plus scrape/evaluation latency
micro-numbers for ``run_all.py``'s ``BENCH_<n>.json`` archives, where
rows of ``compare.py``'s table enforce the overhead and latency ceilings
on every archived run.
"""

from __future__ import annotations

import statistics
import time

from repro.core import DpSgdOptimizer, Trainer
from repro.data import make_mnist_like, train_test_split
from repro.models import build_logistic_regression
from repro.telemetry import MetricsRecorder
from repro.telemetry.live import (
    HealthMonitor,
    MetricsRegistry,
    default_training_rules,
    render_prometheus,
)

ITERATIONS = 200
BATCH = 512  # paper-style large lots; per-sample work dominates each step
MAX_OVERHEAD = 0.05
CHUNK = 5  # iterations per timed chunk


def _workload(samples: int = 4000):
    data = make_mnist_like(samples, rng=0, size=12)
    train, _ = train_test_split(data, rng=0)
    return train


def _make_trainer(train, *, live: bool):
    recorder = MetricsRecorder()
    if live:
        registry = MetricsRegistry()
        monitor = HealthMonitor(registry, default_training_rules())
        monitor.watch(recorder)  # binds the registry + per-step evaluate
    model = build_logistic_regression((1, 12, 12), rng=0)
    optimizer = DpSgdOptimizer(1.0, 0.1, 1.0, rng=2)
    return Trainer(
        model, optimizer, train, batch_size=BATCH, rng=1, telemetry=recorder
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def live_overhead(*, iterations: int = ITERATIONS, train=None) -> dict:
    """Steady-state live-layer overhead via interleaved chunk timing."""
    if train is None:
        train = _workload()
    bare = _make_trainer(train, live=False)
    live = _make_trainer(train, live=True)
    bare.train(CHUNK)
    live.train(CHUNK)  # warm caches before timing

    bare_chunks, live_chunks = [], []
    for _ in range(iterations // CHUNK):
        bare_chunks.append(_timed(lambda: bare.train(CHUNK)))
        live_chunks.append(_timed(lambda: live.train(CHUNK)))

    by_minima = min(live_chunks) / min(bare_chunks) - 1.0
    by_median = (
        statistics.median(lv / b for lv, b in zip(live_chunks, bare_chunks)) - 1.0
    )
    return {
        "iterations": iterations,
        "bare_chunk_min_seconds": min(bare_chunks),
        "live_chunk_min_seconds": min(live_chunks),
        "overhead_by_minima": by_minima,
        "overhead_by_median": by_median,
        "overhead_fraction": min(by_minima, by_median),
    }


def _populated_registry(steps: int = 100) -> tuple[MetricsRegistry, HealthMonitor]:
    """A registry shaped like a real run's, for scrape/evaluate timing."""
    registry = MetricsRegistry()
    monitor = HealthMonitor(registry, default_training_rules())
    for step in range(steps):
        registry.observe_series("clipped_fraction", 0.4, step=step)
        registry.observe_series("noise_to_signal", 1.2, step=step)
        registry.observe_series("angular_deviation", 1.4, step=step)
        registry.observe_series("loss", 0.7, step=step)
        registry.set_gauge(
            "service_tenant_epsilon_spent", 0.01 * step, step=step,
            labels={"tenant": "bulk"},
        )
        registry.inc("releases_gaussian")
    return registry, monitor


def _p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def live_section(*, iterations: int = 100) -> dict:
    """Live-layer numbers, as a ``BENCH_<n>.json`` section."""
    detail = live_overhead(iterations=iterations, train=_workload(2000))
    registry, monitor = _populated_registry()
    evaluate_times = [_timed(lambda: monitor.evaluate(step=0)) for _ in range(50)]
    render_times = [_timed(lambda: render_prometheus(registry)) for _ in range(50)]
    return {
        "overhead": {"value": detail["overhead_fraction"], "unit": "ratio"},
        "evaluate_p95_s": {"value": _p95(evaluate_times), "unit": "s"},
        "render_p95_s": {"value": _p95(render_times), "unit": "s"},
    }


def test_live_overhead_under_5_percent(report):
    detail = live_overhead()
    report(
        "bench_live",
        "\n".join(
            [
                f"live registry + per-step HealthMonitor vs recorder-only, "
                f"{detail['iterations']}-iteration DP-SGD LR run "
                f"(batch {BATCH}, interleaved {CHUNK}-iteration chunks):",
                f"  recorder chunk min: {detail['bare_chunk_min_seconds'] * 1e3:.1f} ms",
                f"  live chunk min:     {detail['live_chunk_min_seconds'] * 1e3:.1f} ms",
                f"  overhead (chunk minima): {detail['overhead_by_minima']:+.2%}",
                f"  overhead (median ratio): {detail['overhead_by_median']:+.2%}",
                f"  overhead:                {detail['overhead_fraction']:+.2%} "
                f"(budget {MAX_OVERHEAD:.0%})",
            ]
        ),
    )
    assert detail["overhead_fraction"] < MAX_OVERHEAD


def test_scrape_latency_is_submillisecond_scale(report):
    """Rendering a realistic registry must stay cheap enough to scrape
    every few seconds without perturbing the run."""
    registry, monitor = _populated_registry()
    evaluate_times = [_timed(lambda: monitor.evaluate(step=0)) for _ in range(50)]
    render_times = [_timed(lambda: render_prometheus(registry)) for _ in range(50)]
    report(
        "bench_live_scrape",
        f"monitor evaluate p95 {_p95(evaluate_times) * 1e3:8.3f} ms\n"
        f"prometheus render p95 {_p95(render_times) * 1e3:8.3f} ms",
    )
    assert _p95(evaluate_times) < 0.05
    assert _p95(render_times) < 0.05


def test_observe_series(benchmark):
    registry = MetricsRegistry()
    steps = iter(range(10**9))
    benchmark(lambda: registry.observe_series("clipped_fraction", 0.4, step=next(steps)))


def test_monitor_evaluate(benchmark):
    registry, monitor = _populated_registry()
    benchmark(monitor.evaluate, step=0)


def test_render_prometheus(benchmark):
    registry, _ = _populated_registry()
    benchmark(render_prometheus, registry)
