"""Lightweight metrics recorder for training runs.

A :class:`MetricsRecorder` collects two kinds of telemetry:

* **scalar series** — ``record(name, value)`` appends ``(step, value)``
  points, e.g. per-iteration loss or noise-to-signal ratio;
* **counters** — ``increment(name)`` for monotone event counts.

Phase wall-clock time is not kept here: it lives in the span tree of a
:class:`~repro.telemetry.tracing.Tracer`, its one store.

While a step is open (:meth:`start_step` / :meth:`end_step`) a recorded
scalar's point takes that step's iteration.  A step's scalars are the
``series`` points at its iteration; the trainer counts closed steps in the
``iterations`` counter.  Nothing else stores either.

The recorder never touches any random state, so an instrumented run is
bit-identical to an uninstrumented one; telemetry is off unless a recorder
is explicitly passed to the trainer/optimizers.
"""

from __future__ import annotations

__all__ = ["MetricsRecorder"]


class MetricsRecorder:
    """In-memory telemetry sink for one training run."""

    def __init__(self):
        #: ``name -> [(step, value), ...]`` scalar series.
        self.series: dict[str, list[tuple[int, float]]] = {}
        #: ``name -> count`` monotone counters.
        self.counters: dict[str, float] = {}
        #: Iteration of the open step, ``None`` between steps.
        self._open_step: int | None = None
        #: Optional live :class:`~repro.telemetry.live.MetricsRegistry`
        #: mirror (see :meth:`bind_registry`).
        self._registry = None
        #: Callables invoked with each closed step's iteration (used by
        #: :meth:`repro.telemetry.live.HealthMonitor.watch`).
        self._end_step_hooks: list = []

    # ------------------------------------------------------------- registry
    def bind_registry(self, registry) -> None:
        """Push into a live ``MetricsRegistry`` from now on (``None`` unbinds).

        Every later :meth:`record`, :meth:`increment` and :meth:`merge_state`
        is mirrored into the registry; what the recorder already holds is
        not, so the registry counts what this process recorded after
        binding, as a Prometheus counter does.  A checkpoint restore
        (:meth:`load_state_dict`) leaves the registry untouched.  The
        registry is deliberately excluded from :meth:`state_dict` — it is
        process-local scrape state, not run telemetry.
        """
        self._registry = registry

    def add_end_step_hook(self, hook) -> None:
        """Call ``hook(iteration)`` after every :meth:`end_step`."""
        self._end_step_hooks.append(hook)

    # ------------------------------------------------------------- scalars
    def record(self, name: str, value, *, step: int | None = None) -> None:
        """Append one ``(step, value)`` point to the series ``name``.

        ``step`` defaults to the open step's iteration, or to the series
        length when no step is open.
        """
        value = float(value)
        if step is None:
            step = self._open_step
        points = self.series.setdefault(name, [])
        if step is None:
            step = len(points)
        points.append((int(step), value))
        if self._registry is not None:
            self._registry.observe_series(name, value, step=int(step))

    def values(self, name: str) -> list[float]:
        """The values of series ``name`` (empty list if never recorded)."""
        return [v for _, v in self.series.get(name, [])]

    def increment(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount
        if self._registry is not None:
            self._registry.inc(name, amount)

    # --------------------------------------------------------------- steps
    def start_step(self, iteration: int) -> None:
        """Open the step of ``iteration``."""
        if self._open_step is not None:
            raise RuntimeError(
                f"step {self._open_step} is still open; call end_step() first"
            )
        self._open_step = int(iteration)

    def end_step(self) -> int:
        """Close the open step, run the end-step hooks; returns its iteration."""
        if self._open_step is None:
            raise RuntimeError("no step is open; call start_step() first")
        iteration, self._open_step = self._open_step, None
        for hook in self._end_step_hooks:
            hook(iteration)
        return iteration

    # --------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Full recorder contents for checkpointing (no step may be open)."""
        if self._open_step is not None:
            raise RuntimeError(
                f"step {self._open_step} is still open; close it before checkpointing"
            )
        return {
            "series": {
                name: [[int(s), float(v)] for s, v in points]
                for name, points in self.series.items()
            },
            "counters": {k: float(v) for k, v in self.counters.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore recorder contents captured by :meth:`state_dict`.

        A bound registry is left as it is: it counts what this process
        published, and restoring older history publishes nothing again.
        The ``events`` list of older snapshots is ignored: the series and
        the ``iterations`` counter hold everything it did.
        """
        self.series = {
            name: [(int(s), float(v)) for s, v in points]
            for name, points in state["series"].items()
        }
        self.counters = {k: float(v) for k, v in state["counters"].items()}
        self._open_step = None

    # -------------------------------------------------------------- merging
    def merge_state(self, state: dict) -> None:
        """Fold another recorder's captured state into this one.

        Series points are appended, counters are summed.
        Applied in a fixed order (job index, regardless of which worker ran
        which job — see :mod:`repro.runtime.shipback`) the merged recorder
        is independent of worker count.
        """
        for name, points in state["series"].items():
            series = self.series.setdefault(name, [])
            for s, v in points:
                series.append((int(s), float(v)))
                if self._registry is not None:
                    self._registry.observe_series(name, float(v), step=int(s))
        for name, value in state["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + float(value)
            if self._registry is not None:
                self._registry.inc(name, float(value))

    def deterministic_state(self) -> dict:
        """The recorder's contents with every wall-clock quantity removed.

        Series whose names end in ``_seconds`` (the project convention for
        wall-clock series, e.g. ``runtime_job_seconds``) measure elapsed
        time and legitimately vary between runs.  Everything else — metric
        series and counters — is a pure function of the
        computation, so this projection is bit-identical across reruns and
        across worker counts.
        """
        state = self.state_dict()
        state["series"] = {
            name: points
            for name, points in state["series"].items()
            if not name.endswith("_seconds")
        }
        return state

    def __repr__(self) -> str:
        return (
            f"MetricsRecorder(series={len(self.series)}, "
            f"counters={len(self.counters)})"
        )
