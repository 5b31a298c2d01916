"""Thread-safe metrics registry for live export.

The :class:`MetricsRegistry` is the aggregation point the live
observability layer scrapes.  It holds three metric kinds:

* **counters** — monotone event counts (``inc``);
* **gauges** — last-value samples with a bounded ``(step, value)``
  window so alert rules can evaluate sliding-window statistics;
* **histograms** — value distributions over **fixed bucket
  boundaries**.  Because the boundaries are fixed per metric name (not
  derived from observed data), bucket counts are plain sums, so the
  counts of merged worker shards do not depend on the order they
  arrive in.

Publishers do not talk to the registry directly; they publish through a
:class:`~repro.telemetry.MetricsRecorder` bound with
``recorder.bind_registry(registry)`` (optimizers, trainer, runtime
shipback), which pushes each point forward as it is recorded, or through
registered *collectors* — callbacks invoked at scrape/evaluation time
that read live subsystem state (backend arena, thread pool, service
queues, tenant ledgers) and set gauges.  The registry has no snapshot,
restore or merge API: it is never checkpointed, never crosses a process
boundary, and counts only what this process published since binding.

Everything here is pure stdlib and never touches random state: binding
a registry to an instrumented run keeps the run bit-identical.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from collections.abc import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "HISTOGRAM_SERIES",
]

#: Power-of-ten-ish latency boundaries (seconds).  Applied to every
#: series whose name ends in ``_seconds`` (the repo-wide wall-clock
#: naming convention).
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_FRACTION_BUCKETS = tuple(round(k / 10.0, 1) for k in range(1, 11))
_RATIO_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_ANGLE_BUCKETS = tuple(round(math.pi * k / 16.0, 9) for k in range(1, 17))

#: Diagnostic series that additionally feed a histogram when observed
#: through :meth:`MetricsRegistry.observe_series`.  Boundaries are part
#: of the public contract: changing them changes merged output.
HISTOGRAM_SERIES: dict[str, tuple[float, ...]] = {
    "clipped_fraction": _FRACTION_BUCKETS,
    "noise_to_signal": _RATIO_BUCKETS,
    "angular_deviation": _ANGLE_BUCKETS,
    "pre_clip_norm_mean": (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
}

#: Default number of ``(step, value)`` samples a gauge retains for
#: sliding-window alert rules.
DEFAULT_WINDOW = 256


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone float counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: tuple, lock: threading.RLock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += float(amount)


class Gauge:
    """Last-value sample plus a bounded ``(step, value)`` window."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "step", "window", "_lock")

    def __init__(
        self,
        name: str,
        labels: tuple,
        lock: threading.RLock,
        window: int = DEFAULT_WINDOW,
    ):
        self.name = name
        self.labels = labels
        self.value: float | None = None
        self.step: int | None = None
        self.window: deque[tuple[int, float]] = deque(maxlen=window)
        self._lock = lock

    def set(self, value: float, *, step: int | None = None) -> None:
        with self._lock:
            value = float(value)
            if step is None:
                step = self.step + 1 if self.step is not None else 0
            step = int(step)
            if self.step is None or step >= self.step:
                self.value = value
                self.step = step
            if not self.window or step > self.window[-1][0]:
                self.window.append((step, value))
            elif self.window[-1][0] == step:
                self.window[-1] = (step, value)
            else:
                # Out-of-order publish (worker states merged shard by
                # shard): keep the window sorted by step so the merged
                # window is independent of merge order; the window is
                # then always the newest ``maxlen`` points by step.
                items = list(self.window)
                steps = [s for s, _ in items]
                i = bisect.bisect_left(steps, step)
                if i < len(items) and items[i][0] == step:
                    items[i] = (step, value)
                else:
                    items.insert(i, (step, value))
                maxlen = self.window.maxlen
                if maxlen is not None and len(items) > maxlen:
                    items = items[-maxlen:]
                self.window = deque(items, maxlen=maxlen)

    def samples(self) -> list[tuple[int, float]]:
        with self._lock:
            return list(self.window)


class Histogram:
    """Fixed-boundary histogram (cumulative rendering happens at export)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count", "_lock")

    def __init__(
        self, name: str, labels: tuple, bounds: Iterable[float], lock: threading.RLock
    ):
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: Per-interval counts; one extra slot for the +Inf overflow.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            value = float(value)
            lo, hi = 0, len(self.bounds)
            while lo < hi:
                mid = (lo + hi) // 2
                if value <= self.bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            self.bucket_counts[lo] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts including the ``+Inf`` bucket."""
        with self._lock:
            out, running = [], 0
            for c in self.bucket_counts:
                running += c
                out.append(running)
            return out


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms.

    One registry serves one process (a trainer run or a
    :class:`~repro.service.BudgetServer`); workers ship recorder state
    back to the parent, whose bound registry mirrors the merge, so the
    registry itself never crosses process boundaries.
    """

    def __init__(self, *, gauge_window: int = DEFAULT_WINDOW):
        self._lock = threading.RLock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []
        self._gauge_window = int(gauge_window)

    # ----------------------------------------------------------- accessors
    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(name, key[1], self._lock)
            return metric

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(
                    name, key[1], self._lock, window=self._gauge_window
                )
            return metric

    def histogram(
        self,
        name: str,
        bounds: Iterable[float],
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(
                    name, key[1], bounds, self._lock
                )
            elif metric.bounds != tuple(float(b) for b in bounds):
                raise ValueError(
                    f"histogram {name!r} re-registered with different bounds"
                )
            return metric

    # ----------------------------------------------------------- publishing
    def inc(
        self, name: str, amount: float = 1.0, labels: dict[str, str] | None = None
    ) -> None:
        self.counter(name, labels).inc(amount)

    def set_gauge(
        self,
        name: str,
        value: float,
        *,
        step: int | None = None,
        labels: dict[str, str] | None = None,
    ) -> None:
        self.gauge(name, labels).set(value, step=step)

    def observe_series(
        self,
        name: str,
        value: float,
        *,
        step: int | None = None,
        labels: dict[str, str] | None = None,
    ) -> None:
        """Route one recorder series point into the registry.

        Every series becomes a windowed gauge; series with registered
        fixed boundaries (:data:`HISTOGRAM_SERIES`, plus the
        ``*_seconds`` latency convention) additionally feed a histogram.
        """
        self.gauge(name, labels).set(value, step=step)
        bounds = HISTOGRAM_SERIES.get(name)
        if bounds is None and name.endswith("_seconds"):
            bounds = DEFAULT_LATENCY_BUCKETS
        if bounds is not None:
            self.histogram(name, bounds, labels).observe(value)

    def register_collector(self, fn: Callable[[MetricsRegistry], None]) -> None:
        """Register a callback run at scrape/evaluation time."""
        with self._lock:
            self._collectors.append(fn)

    def run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)

    # ------------------------------------------------------------- snapshot
    def collect(self) -> dict:
        """Run the collectors, then snapshot every metric (JSON-safe, sorted)."""
        self.run_collectors()
        with self._lock:
            counters = [
                {"name": m.name, "labels": dict(m.labels), "value": m.value}
                for _, m in sorted(self._counters.items())
            ]
            gauges = [
                {
                    "name": m.name,
                    "labels": dict(m.labels),
                    "value": m.value,
                    "step": m.step,
                    "window": [[s, v] for s, v in m.window],
                }
                for _, m in sorted(self._gauges.items())
                if m.value is not None
            ]
            histograms = [
                {
                    "name": m.name,
                    "labels": dict(m.labels),
                    "bounds": list(m.bounds),
                    "bucket_counts": list(m.bucket_counts),
                    "sum": m.sum,
                    "count": m.count,
                }
                for _, m in sorted(self._histograms.items())
            ]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
            )
