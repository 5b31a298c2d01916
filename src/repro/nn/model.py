"""Sequential model with flattened-parameter and per-sample-gradient APIs.

The optimizers in :mod:`repro.core` operate on flat parameter vectors and
flat gradient (matrices); :class:`Sequential` provides the bridge:

* ``get_params()`` / ``set_params(flat)`` — the full parameter vector
  ``w`` in a fixed deterministic order.
* ``loss_and_gradient(x, y)`` — batch-mean loss and mean gradient ``(P,)``
  (non-private SGD path).
* ``loss_and_per_sample_gradients(x, y)`` — per-sample losses ``(B,)`` and
  the per-sample gradient matrix ``(B, P)`` (the DP-SGD/GeoDP path: each row
  is ``grad l(w; s_j)`` of Eq. 4, before clipping).
* ``loss_and_clipped_grad_sum(x, y, clipping)`` — the ghost-clipping fast
  path: per-sample losses plus the clipped gradient *sum* ``sum_i c_i g_i``
  computed with two backward passes and O(P) gradient memory, never forming
  the ``(B, P)`` matrix (see :doc:`/docs/performance`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import Loss, SoftmaxCrossEntropy

__all__ = ["Sequential"]


class Sequential:
    """A chain of layers plus a per-sample loss."""

    def __init__(self, layers: list[Layer], loss: Loss | None = None):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        # Fixed parameter ordering: (layer_index, param_name, shape, size).
        self._index: list[tuple[int, str, tuple[int, ...], int]] = []
        for i, layer in enumerate(self.layers):
            for name, value in layer.params().items():
                self._index.append((i, name, value.shape, value.size))

    # ------------------------------------------------------------------ params
    @property
    def num_params(self) -> int:
        """Total number of scalar parameters ``P``."""
        return sum(size for *_, size in self._index)

    def get_params(self) -> np.ndarray:
        """Concatenate all parameters into one flat vector ``(P,)``."""
        if not self._index:
            return np.zeros(0)
        chunks = []
        for i, name, _, _ in self._index:
            chunks.append(self.layers[i].params()[name].ravel())
        return np.concatenate(chunks)

    def set_params(self, flat: np.ndarray) -> None:
        """Write a flat vector ``(P,)`` back into the layers."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_params,):
            raise ValueError(
                f"expected flat params of shape ({self.num_params},), got {flat.shape}"
            )
        offset = 0
        for i, name, shape, size in self._index:
            self.layers[i].set_param(name, flat[offset : offset + size].reshape(shape))
            offset += size

    # ----------------------------------------------------------------- forward
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Run the layer chain; caches intermediates when ``train``."""
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions (no caching)."""
        logits = self.forward(x, train=False)
        return np.argmax(logits, axis=1)

    def accuracy(self, x: np.ndarray, y) -> float:
        """Classification accuracy on ``(x, y)``."""
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def mean_loss(self, x: np.ndarray, y) -> float:
        """Batch-mean loss without touching gradients or caches."""
        return self.loss.mean(self.forward(x, train=False), y)

    # ---------------------------------------------------------------- backward
    def _backward(self, grad: np.ndarray, per_sample: bool) -> list[dict[str, np.ndarray]]:
        per_layer: list[dict[str, np.ndarray]] = [None] * len(self.layers)  # type: ignore
        for i in reversed(range(len(self.layers))):
            grad, grads = self.layers[i].backward(grad, per_sample=per_sample)
            per_layer[i] = grads
        return per_layer

    def _flatten_grads(
        self, per_layer: list[dict[str, np.ndarray]], batch: int | None
    ) -> np.ndarray:
        if not self._index:
            return np.zeros(0 if batch is None else (batch, 0))
        chunks = []
        for i, name, _, size in self._index:
            g = per_layer[i][name]
            if batch is None:
                chunks.append(g.reshape(size))
            else:
                chunks.append(g.reshape(batch, size))
        axis = 0 if batch is None else 1
        return np.concatenate(chunks, axis=axis)

    def loss_and_gradient(self, x: np.ndarray, y) -> tuple[float, np.ndarray]:
        """Batch-mean loss and its flat gradient ``(P,)`` (non-private path)."""
        outputs = self.forward(x, train=True)
        losses = self.loss.per_sample(outputs, y)
        grad_out = self.loss.gradient(outputs, y)
        per_layer = self._backward(grad_out, per_sample=False)
        flat = self._flatten_grads(per_layer, batch=None) / x.shape[0]
        return float(np.mean(losses)), flat

    def loss_and_per_sample_gradients(
        self, x: np.ndarray, y
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample losses ``(B,)`` and per-sample flat gradients ``(B, P)``."""
        outputs = self.forward(x, train=True)
        losses = self.loss.per_sample(outputs, y)
        grad_out = self.loss.gradient(outputs, y)
        per_layer = self._backward(grad_out, per_sample=True)
        return losses, self._flatten_grads(per_layer, batch=x.shape[0])

    def per_sample_grad_norms(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray | None], np.ndarray]:
        """Ghost backward pass #1: pre-clip per-sample squared gradient norms.

        Runs the layer chain's :meth:`~repro.nn.layers.Layer.backward_norm_sq`
        hooks on the (already cached) forward activations, accumulating each
        layer's squared-norm contribution.  Returns ``(norm_sq (B,),
        upstream, grad_in)``: ``upstream[i]`` is parametric layer ``i``'s
        unscaled upstream gradient (``None`` for parameter-free layers), the
        input of :meth:`clipped_grad_sum` in pass #2, and ``grad_in`` is the
        gradient into the first layer.  The sparse path's dense head hands
        ``grad_in`` to the embedding below it and adds that layer's squared
        norms last; a caller that does not read ``grad_in`` should drop it
        before pass #2.
        """
        norm_sq = np.zeros(grad_out.shape[0])
        upstream: list[np.ndarray | None] = [None] * len(self.layers)
        grad = grad_out
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if layer.params():
                upstream[i] = grad
            grad, layer_norm_sq = layer.backward_norm_sq(grad)
            norm_sq += layer_norm_sq
        return norm_sq, upstream, grad

    def clipped_grad_sum(
        self, upstream: list[np.ndarray | None], factors: np.ndarray
    ) -> np.ndarray:
        """Ghost backward pass #2: the flat clipped gradient sum ``(P,)``.

        Every layer with a cached upstream gradient from
        :meth:`per_sample_grad_norms` runs its
        :meth:`~repro.nn.layers.Layer.accumulate_clipped` with the
        per-sample clip factors — summed parameter gradients only, *no*
        second trip through the layer chain (input gradients, col2im, ...).
        """
        per_layer: list[dict[str, np.ndarray]] = [
            layer.accumulate_clipped(grad, factors) if grad is not None else {}
            for layer, grad in zip(self.layers, upstream)
        ]
        return self._flatten_grads(per_layer, batch=None)

    def loss_and_clipped_grad_sum(
        self, x: np.ndarray, y, clipping
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ghost-clipping fast path: clipped gradient sum without ``(B, P)``.

        Backward pass #1 (:meth:`per_sample_grad_norms`) accumulates
        per-sample gradient norms from layer-local "ghost" quantities while
        caching each parametric layer's (unscaled) upstream gradient;
        ``clipping`` maps the norms to per-sample factors ``c_i``
        (:meth:`~repro.privacy.clipping.ClippingStrategy.clip_factors`);
        pass #2 (:meth:`clipped_grad_sum`) accumulates each parametric
        layer's clipped gradient sum from its cached upstream gradient.
        Because backward never mixes samples, scaling sample ``i``'s
        upstream rows by ``c_i`` commutes with the (per-sample linear)
        backward map, so the result equals ``sum_i c_i g_i`` exactly —
        within floating-point tolerance of the materialized path.

        Returns ``(per-sample losses (B,), clipped sum (P,), pre-clip
        norms (B,))``.
        """
        if len(x) == 0:
            # Empty Poisson batch: nothing to clip; mirror the optimizers'
            # materialized-path handling (zero sum).
            return np.zeros(0), np.zeros(self.num_params), np.zeros(0)
        outputs = self.forward(x, train=True)
        losses = self.loss.per_sample(outputs, y)
        grad_out = self.loss.gradient(outputs, y)
        # Nothing reads the chain's input gradient: drop it before pass #2.
        norm_sq, upstream = self.per_sample_grad_norms(grad_out)[:2]
        norms = np.sqrt(norm_sq)
        summed = self.clipped_grad_sum(upstream, clipping.clip_factors(norms))
        return losses, summed, norms

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}], params={self.num_params})"
