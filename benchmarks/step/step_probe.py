"""Per-layer attribution of a DP step, by wrapping public calls from outside.

The probe never hands a ``Tracer`` or ``MetricsRecorder`` to the trainer or
the optimizer: with either attached, the optimizers switch to a different
noise path (allocating ``rng.normal`` instead of the workspace buffers), so
the trace would time other code than the untraced run.  Instead
:meth:`Probe.install` replaces public functions and methods — module
attributes the trainers resolve at call time, and instance attributes on
the run's model layers, loss, dataset, clipping strategy, optimizer,
accountant, ledger and the active backend — with wrappers that open a span
on a standalone :class:`repro.telemetry.Tracer`.  :meth:`Probe.uninstall`
restores every original.

A span's *self* time is its duration minus the time of its child spans;
:func:`summarize` totals a traced round's self seconds and calls per span
name, and how much of each step the spans cover.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

import repro.core.trainer as core_trainer
import repro.sparse.release as sparse_release
import repro.sparse.trainer as sparse_trainer
from repro.backend import get_backend, workspace
from repro.nn.embedding import Embedding
from repro.telemetry import Tracer

__all__ = ["Probe", "summarize", "workspace_counts", "LAYER_METHODS", "BACKEND_KERNELS"]

#: Layer method -> metric suffix.  ``backward_sparse`` is the embedding's
#: pass on the sparse path, where the ghost hooks do not run.
LAYER_METHODS = {
    "forward": "forward",
    "backward": "backward",
    "backward_norm_sq": "norm",
    "accumulate_clipped": "accumulate",
    "backward_sparse": "sparse",
}

#: Backend kernels timed on the active backend instance.
BACKEND_KERNELS = (
    "geodp_perturb",
    "conv_norm_sq",
    "conv_clip_accumulate",
    "linear_norm_sq",
    "linear_clip_accumulate",
    "embedding_norm_sq",
    "embedding_sparse_grads",
    "sparse_row_reduce",
)

STEP_SPAN = "step"


class Probe:
    """Installs span wrappers around one run's public calls."""

    def __init__(self):
        self.tracer = Tracer()
        self._restore: list[tuple[object, str, object, bool]] = []
        # The layer whose method span is open: a layer's generic fallback
        # (e.g. ``accumulate_clipped`` calling its own ``backward``) stays
        # inside the outer method's span instead of splitting it.
        self._open_layer = None

    # ------------------------------------------------------------ wrapping
    def _patch(self, owner, attr: str, wrapper) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        span = self.tracer.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _wrap_layer(self, layer, attr: str, name: str) -> None:
        original = getattr(layer, attr)
        span = self.tracer.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._open_layer is layer:
                return original(*args, **kwargs)
            outer, self._open_layer = self._open_layer, layer
            try:
                with span(name):
                    return original(*args, **kwargs)
            finally:
                self._open_layer = outer

        self._patch(layer, attr, wrapper)

    def install(self, run) -> None:
        """Wrap the public calls one step of ``run`` makes."""
        trainer, model, optimizer = run.trainer, run.model, run.optimizer
        for module in (core_trainer, sparse_trainer):
            self._wrap(module, "minibatch_indices", "data.sample")
        self._wrap(trainer.train_data, "batch", "data.batch")

        for index, layer in enumerate(model.layers):
            kind = type(layer).__name__
            for method, suffix in LAYER_METHODS.items():
                if method == "backward_sparse" and not isinstance(layer, Embedding):
                    continue
                self._wrap_layer(layer, method, f"nn.L{index}.{kind}.{suffix}")
        for method in ("per_sample", "gradient"):
            self._wrap(model.loss, method, "nn.loss")
        self._wrap(model, "loss_and_per_sample_gradients", "nn.flatten")
        self._wrap(model, "loss_and_clipped_grad_sum", "nn.ghost")
        for method in ("get_params", "set_params"):
            self._wrap(model, method, "nn.params")
        for function in ("get_dense_params", "set_dense_params"):
            self._wrap(sparse_trainer, function, "nn.params")

        for method in ("clip", "clip_with_norms", "clip_factors"):
            self._wrap(optimizer.clipping, method, "clip.clip")
        self._wrap(optimizer, "noisy_gradient_presummed", "core.release")
        for method in ("step", "step_presummed", "step_sparse"):
            self._wrap(optimizer, method, "core.descend")

        backend = get_backend()
        for kernel in BACKEND_KERNELS:
            self._wrap(backend, kernel, f"backend.{kernel}")

        self._wrap(run.accountant, "step", "privacy.accountant")
        self._wrap(run.ledger, "record_release", "privacy.ledger")

        self._wrap(sparse_trainer, "sparse_clipped_sums", "sparse.clipped_sums")
        self._wrap(sparse_release, "geodp_sparse_release", "sparse.release")
        lazy = getattr(trainer, "lazy_noise", None)
        if lazy is not None:
            self._wrap(lazy, "materialize", "sparse.catch_up")

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._restore:
            owner, attr, value, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, run):
        self.install(run)
        try:
            yield self
        finally:
            self.uninstall()

    def step(self):
        """The root span of one timed step."""
        return self.tracer.span(STEP_SPAN, level="lot")


def summarize(tracer: Tracer) -> dict:
    """Totals over a traced round: steps, step seconds, covered seconds, and
    self seconds and calls per span name.

    A step's covered seconds are those its direct child spans account for.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals = {"steps": 0, "step_s": 0.0, "covered_s": 0.0, "self_s": {}, "calls": {}}
    for index, span in enumerate(spans):
        if span.name == STEP_SPAN and span.parent is None:
            totals["steps"] += 1
            totals["step_s"] += span.duration
            totals["covered_s"] += child_time[index]
            continue
        self_s, calls = totals["self_s"], totals["calls"]
        self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - child_time[index]
        calls[span.name] = calls.get(span.name, 0) + 1
    return totals


def workspace_counts() -> tuple[int, int]:
    """Current workspace-arena ``(hits, misses)`` counters."""
    stats = workspace.stats()
    return stats["workspace_hits"], stats["workspace_misses"]
