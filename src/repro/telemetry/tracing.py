"""Hierarchical span tracing for training runs.

A :class:`Tracer` records a tree of timed *spans* — run → epoch → lot →
phase (``forward_backward`` / ``clip`` / ``spherical`` / ``noise`` /
``step``, plus ``ghost`` and ``checkpoint``) — so a training run's time can
be broken down structurally ("where did this lot's milliseconds go?") as
well as into flat per-phase totals (:meth:`Tracer.phase_totals`).  It is
the only store of phase time: the trainer, the DP optimizers and the
sparse path open every phase through :func:`maybe_span`.  Each span
captures wall-clock duration and, optionally, the ``tracemalloc`` peak
allocation inside the span.  Spans nest through an ordinary
context-manager stack::

    tracer = Tracer()
    with tracer.span("run", level="run"):
        with tracer.span("lot", level="lot"):
            with tracer.span("clip"):
                ...

The recorded tree exports two ways:

* through the JSONL telemetry exporter (:func:`repro.telemetry.export_trace`
  writes one ``span`` line per record, loadable back into a tracer), and
* as Chrome trace-event JSON (:meth:`Tracer.chrome_trace`), loadable in
  ``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_.

``granularity`` bounds the recorded depth so tracing can stay on in
production at negligible cost: at ``"lot"`` granularity the per-phase spans
inside each iteration become no-ops (asserted <15% overhead in
``benchmarks/bench_telemetry.py``; with no tracer attached the trainer's
disabled path stays <5%).  Like the :class:`~repro.telemetry.MetricsRecorder`,
a tracer never touches random state — traced runs are bit-identical to
untraced ones.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

__all__ = [
    "SPAN_LEVELS",
    "Span",
    "Tracer",
    "maybe_span",
]

#: Hierarchy levels, outermost first.  ``granularity`` keeps every level up
#: to and including the named one; deeper spans are skipped.
SPAN_LEVELS = ("run", "epoch", "lot", "phase")
_LEVEL_DEPTH = {name: depth for depth, name in enumerate(SPAN_LEVELS)}


@dataclass
class Span:
    """One closed (or still-open) node of the span tree.

    ``start`` is seconds since the tracer's epoch (its construction time),
    ``parent`` an index into the tracer's ``spans`` list (``None`` for
    roots), and ``peak_bytes`` the ``tracemalloc`` peak inside the span
    (``None`` when memory tracing is off).  ``track`` labels the execution
    lane — ``"main"`` in-process, a job key for spans merged back from pool
    workers.
    """

    name: str
    level: str
    start: float
    duration: float = 0.0
    parent: int | None = None
    depth: int = 0
    peak_bytes: int | None = None
    track: str = "main"
    #: Free-form numeric annotations (rendered into Chrome trace ``args``).
    meta: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form used by the JSONL exporter."""
        out = {
            "name": self.name,
            "level": self.level,
            "start": float(self.start),
            "duration": float(self.duration),
            "parent": None if self.parent is None else int(self.parent),
            "depth": int(self.depth),
            "peak_bytes": None if self.peak_bytes is None else int(self.peak_bytes),
            "track": self.track,
        }
        if self.meta:
            out["meta"] = {k: float(v) for k, v in self.meta.items()}
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        peak = payload.get("peak_bytes")
        parent = payload.get("parent")
        return cls(
            name=str(payload["name"]),
            level=str(payload["level"]),
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            parent=None if parent is None else int(parent),
            depth=int(payload.get("depth", 0)),
            peak_bytes=None if peak is None else int(peak),
            track=str(payload.get("track", "main")),
            meta={k: float(v) for k, v in payload.get("meta", {}).items()},
        )


class Tracer:
    """Collects a hierarchical span tree for one training run.

    Parameters
    ----------
    granularity:
        Deepest :data:`SPAN_LEVELS` entry to record (default ``"phase"``:
        everything).  ``"lot"`` keeps run/epoch/lot spans but skips the
        per-phase spans inside each iteration — the cheap production
        setting.
    trace_memory:
        When true, each recorded span also captures its ``tracemalloc``
        peak.  The tracer starts ``tracemalloc`` itself if it is not
        already tracing (and stops it again in :meth:`close`).  Memory
        tracing is accurate but slow — leave it off on hot paths.
    """

    def __init__(self, *, granularity: str = "phase", trace_memory: bool = False):
        if granularity not in _LEVEL_DEPTH:
            raise ValueError(
                f"granularity must be one of {SPAN_LEVELS}, got {granularity!r}"
            )
        self.granularity = granularity
        self.trace_memory = bool(trace_memory)
        #: Closed and open spans, in span-open order.
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: Peak bytes observed so far inside each open span (memory mode).
        self._peak_accum: list[int] = []
        self._epoch = time.perf_counter()
        self._owns_tracemalloc = False
        if self.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # ------------------------------------------------------------- recording
    def enabled(self, level: str = "phase") -> bool:
        """Whether spans at ``level`` are being recorded."""
        return _LEVEL_DEPTH[level] <= _LEVEL_DEPTH[self.granularity]

    @contextmanager
    def span(self, name: str, level: str = "phase"):
        """Record one span; nested calls build the tree.

        Spans deeper than the tracer's granularity cost one dict lookup and
        nothing else.  Yields the :class:`Span` (or ``None`` when skipped).
        """
        if _LEVEL_DEPTH[level] > _LEVEL_DEPTH[self.granularity]:
            yield None
            return
        index = len(self.spans)
        record = Span(
            name=name,
            level=level,
            start=time.perf_counter() - self._epoch,
            parent=self._stack[-1] if self._stack else None,
            depth=len(self._stack),
        )
        self.spans.append(record)
        self._stack.append(index)
        memory = self.trace_memory and tracemalloc.is_tracing()
        if memory:
            if self._peak_accum:
                # Bank the enclosing span's peak before the child resets it.
                self._peak_accum[-1] = max(
                    self._peak_accum[-1], tracemalloc.get_traced_memory()[1]
                )
            tracemalloc.reset_peak()
            self._peak_accum.append(0)
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - self._epoch - record.start
            self._stack.pop()
            if memory:
                peak = max(self._peak_accum.pop(), tracemalloc.get_traced_memory()[1])
                record.peak_bytes = int(peak)
                if self._peak_accum:
                    # A child's peak is also its parent's; restart the
                    # parent's measurement window for the code that follows.
                    self._peak_accum[-1] = max(self._peak_accum[-1], peak)
                    tracemalloc.reset_peak()

    def close(self) -> None:
        """Stop ``tracemalloc`` if this tracer started it."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    # ------------------------------------------------------------ inspection
    def phase_totals(self, level: str | None = None) -> dict[str, float]:
        """Accumulated seconds per span name (optionally one level only)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if level is not None and span.level != level:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={len(self.spans)}, granularity={self.granularity!r}, "
            f"trace_memory={self.trace_memory})"
        )

    # ---------------------------------------------------------- serialisation
    def state_dict(self) -> dict:
        """Full tracer contents for export / cross-process shipping.

        No span may be open: a half-open tree cannot be merged or resumed
        meaningfully.
        """
        if self._stack:
            open_span = self.spans[self._stack[-1]]
            raise RuntimeError(
                f"span {open_span.name!r} is still open; close it before "
                "serialising the tracer"
            )
        return {
            "granularity": self.granularity,
            "trace_memory": self.trace_memory,
            "spans": [span.to_dict() for span in self.spans],
        }

    def load_state_dict(self, state: dict) -> None:
        """Replace this tracer's contents with a captured state."""
        self.granularity = str(state.get("granularity", "phase"))
        self.trace_memory = bool(state.get("trace_memory", False))
        self.spans = [Span.from_dict(payload) for payload in state["spans"]]
        self._stack = []
        self._peak_accum = []

    def merge_state(self, state: dict, *, track: str) -> None:
        """Append another tracer's spans under the execution lane ``track``.

        Parent indices are re-based onto this tracer's span list, so the
        merged tree stays self-consistent.  Applied in job-index order
        (see :mod:`repro.runtime.shipback`) the merged result is
        independent of how many workers produced the states.  Start times
        stay relative to the *source* tracer's epoch — each track renders
        from its own zero in the Chrome trace view.
        """
        offset = len(self.spans)
        for payload in state["spans"]:
            span = Span.from_dict(payload)
            if span.parent is not None:
                span.parent += offset
            span.track = track
            self.spans.append(span)

    # -------------------------------------------------------- chrome export
    def chrome_trace(self) -> dict:
        """The span tree as Chrome trace-event JSON (Perfetto-loadable).

        Every span becomes one complete event (``"ph": "X"``) with
        microsecond timestamps; tracks map to thread ids with matching
        ``thread_name`` metadata events, so worker lanes show up as named
        threads alongside ``main``.
        """
        tracks = sorted({span.track for span in self.spans})
        # "main" first, then worker tracks in sorted (deterministic) order.
        if "main" in tracks:
            tracks.remove("main")
            tracks.insert(0, "main")
        tid = {track: i for i, track in enumerate(tracks)}
        events: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid[track],
                "args": {"name": track},
            }
            for track in tracks
        ]
        for span in self.spans:
            args: dict = {"level": span.level}
            if span.peak_bytes is not None:
                args["peak_bytes"] = span.peak_bytes
            args.update(span.meta)
            events.append(
                {
                    "name": span.name,
                    "cat": span.level,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 0,
                    "tid": tid.get(span.track, 0),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path) -> None:
        """Write :meth:`chrome_trace` to ``path`` as JSON (atomically)."""
        import json

        from repro.utils.serialization import atomic_write_bytes

        atomic_write_bytes(
            path, (json.dumps(self.chrome_trace(), indent=1) + "\n").encode("utf-8")
        )


# ------------------------------------------------------------------ helpers
#: The one no-op span (``nullcontext`` is stateless, so sharing is safe).
_NO_SPAN = nullcontext()


def maybe_span(tracer: Tracer | None, name: str, level: str = "phase"):
    """``tracer.span(...)`` or a no-op context when ``tracer`` is ``None``."""
    if tracer is None:
        return _NO_SPAN
    return tracer.span(name, level)
