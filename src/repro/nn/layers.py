"""Layers with exact per-sample parameter gradients.

Contract
--------
``forward(x, train=True)`` caches whatever ``backward`` needs (when
``train``) and returns the output.  ``backward(grad_out, per_sample=False)``
returns ``(grad_in, param_grads)`` where ``param_grads`` maps parameter name
to either

* the gradient *summed over the batch* (shape = parameter shape), or
* with ``per_sample=True``, per-sample gradients with a leading batch axis.

Upstream gradients are gradients of the *sum of per-sample losses* (the
per-sample loss gradients stacked), so per-sample parameter gradients are
exactly the gradients Opacus computes before clipping.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend
from repro.backend.reference import check_maxpool_backward
from repro.nn import functional as F
from repro.nn.initializers import kaiming_uniform, zeros_init
from repro.utils.rng import as_rng

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Flatten",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
]


def coerce_param(owner: str, name: str, value, expected_shape) -> np.ndarray:
    """Validate a replacement parameter strictly; never reshape silently.

    A transposed ``(dim, vocab)`` embedding table or a flattened weight has
    the right *size* but the wrong *shape*; loading it through ``reshape``
    corrupts training without a trace.  Shape mismatches are errors.
    """
    value = np.asarray(value, dtype=np.float64)
    if value.shape != tuple(expected_shape):
        raise ValueError(
            f"{owner}.{name} expects shape {tuple(expected_shape)}, "
            f"got {value.shape}"
        )
    return value


class Layer:
    """Base class; parameter-free layers only override forward/backward."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray, per_sample: bool = False
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        raise NotImplementedError

    def backward_norm_sq(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ghost-norm backward: ``(grad_in, per-sample param-grad norm² (B,))``.

        Returns the input gradient (same as :meth:`backward`) together with
        each sample's squared L2 norm of this layer's parameter gradient,
        computed — in the overriding parametric layers — from layer-local
        cached activations and ``grad_out`` without materializing the
        per-sample gradient arrays.  This generic implementation is the
        correct-for-anything fallback: parameter-free layers contribute
        zeros, and unspecialized parametric layers fall back to the
        materialized per-sample gradients.
        """
        if not self.params():
            grad_in, _ = self.backward(grad_out, per_sample=False)
            return grad_in, np.zeros(grad_out.shape[0])
        grad_in, grads = self.backward(grad_out, per_sample=True)
        batch = grad_out.shape[0]
        norm_sq = np.zeros(batch)
        for g in grads.values():
            flat = g.reshape(batch, -1)
            norm_sq += np.einsum("ij,ij->i", flat, flat)
        return grad_in, norm_sq

    def accumulate_clipped(
        self, grad_out: np.ndarray, factors: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Ghost backward pass #2: clip-scaled summed parameter gradients.

        ``grad_out`` is this layer's *unscaled* upstream gradient cached
        during the norm pass; ``factors`` are the per-sample clip factors
        ``c_i``.  Because backward never mixes samples, scaling each
        sample's rows of ``grad_out`` by ``c_i`` and summing yields exactly
        ``sum_i c_i (dtheta_i)`` — without re-running the layer *chain*
        (the input gradient is never needed again).  This generic fallback
        scales and delegates to :meth:`backward`; the hot layers override
        it with backend kernels that skip the input-gradient work.
        """
        scaled = grad_out * factors.reshape(
            (grad_out.shape[0],) + (1,) * (grad_out.ndim - 1)
        )
        _, grads = self.backward(scaled, per_sample=False)
        return grads

    def params(self) -> dict[str, np.ndarray]:
        """Ordered mapping of parameter name to array (empty if none)."""
        return {}

    def set_param(self, name: str, value: np.ndarray) -> None:
        raise KeyError(f"{type(self).__name__} has no parameter {name!r}")

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params().values())

    def __call__(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.forward(x, train=train)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Linear(Layer):
    """Fully connected layer ``y = x @ W + b`` with per-sample gradients."""

    def __init__(self, in_features: int, out_features: int, rng=None, *, bias: bool = True):
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = kaiming_uniform((in_features, out_features), as_rng(rng))
        self.bias = zeros_init((out_features,)) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (B, {self.in_features}), got {x.shape}"
            )
        if train:
            self._x = x
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def backward(self, grad_out, per_sample: bool = False):
        if self._x is None:
            raise RuntimeError("backward called before forward(train=True)")
        x = self._x
        grad_in = grad_out @ self.weight.T
        if per_sample:
            grads = {"weight": np.einsum("bi,bo->bio", x, grad_out)}
            if self.bias is not None:
                grads["bias"] = grad_out
        else:
            grads = {"weight": x.T @ grad_out}
            if self.bias is not None:
                grads["bias"] = grad_out.sum(axis=0)
        return grad_in, grads

    def backward_norm_sq(self, grad_out):
        if self._x is None:
            raise RuntimeError("backward called before forward(train=True)")
        # Per-sample weight gradient is the outer product a_i e_i^T, so its
        # squared Frobenius norm factorizes: ||a_i||^2 * ||e_i||^2.  The bias
        # gradient is e_i itself.  No (B, in, out) array is ever formed.
        norm_sq = get_backend().linear_norm_sq(
            self._x, grad_out, self.bias is not None
        )
        return grad_out @ self.weight.T, norm_sq

    def accumulate_clipped(self, grad_out, factors):
        if self._x is None:
            raise RuntimeError("backward called before forward(train=True)")
        dw, db = get_backend().linear_clip_accumulate(
            self._x, grad_out, factors, self.bias is not None
        )
        grads = {"weight": dw}
        if db is not None:
            grads["bias"] = db
        return grads

    def params(self) -> dict[str, np.ndarray]:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def set_param(self, name: str, value: np.ndarray) -> None:
        if name == "weight":
            self.weight = coerce_param("Linear", name, value, self.weight.shape)
        elif name == "bias" and self.bias is not None:
            self.bias = coerce_param("Linear", name, value, self.bias.shape)
        else:
            raise KeyError(f"Linear has no parameter {name!r}")

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._mask = x > 0
        return F.relu(x)

    def backward(self, grad_out, per_sample: bool = False):
        if self._mask is None:
            raise RuntimeError("backward called before forward(train=True)")
        return grad_out * self._mask, {}


class Flatten(Layer):
    """Flatten all axes after the batch axis."""

    def __init__(self):
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out, per_sample: bool = False):
        if self._shape is None:
            raise RuntimeError("backward called before forward(train=True)")
        return grad_out.reshape(self._shape), {}


class Conv2d(Layer):
    """2-D convolution via im2col with per-sample weight gradients.

    Weights have shape ``(out_channels, in_channels, kernel, kernel)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        *,
        stride: int = 1,
        padding: int = 0,
        rng=None,
        bias: bool = True,
    ):
        if min(in_channels, out_channels, kernel, stride) < 1 or padding < 0:
            raise ValueError("invalid Conv2d geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.weight = kaiming_uniform(
            (out_channels, in_channels, kernel, kernel), as_rng(rng)
        )
        self.bias = zeros_init((out_channels,)) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        # Per-sample (B, O, K) weight gradients the last norm pass formed,
        # or None when the backend took the Gram side of its crossover.
        self._norm_pass_dw: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (B, {self.in_channels}, H, W), got {x.shape}"
            )
        batch = x.shape[0]
        out_h, out_w = F.conv_output_shape(
            x.shape[2], x.shape[3], self.kernel, self.stride, self.padding
        )
        cols = F.im2col(x, self.kernel, self.stride, self.padding)
        w_flat = self.weight.reshape(self.out_channels, -1)
        out = np.matmul(w_flat, cols)
        if self.bias is not None:
            out = out + self.bias[None, :, None]
        if train:
            self._cols = cols
            self._x_shape = x.shape
            self._norm_pass_dw = None  # formed from the previous batch
        return out.reshape(batch, self.out_channels, out_h, out_w)

    def _input_grad(self, dy: np.ndarray) -> np.ndarray:
        """``(B, C, H, W)`` input gradient from the ``(B, O, L)`` upstream."""
        dcols = np.matmul(self.weight.reshape(self.out_channels, -1).T, dy)
        return get_backend().col2im(
            dcols, self._x_shape, self.kernel, self.stride, self.padding
        )

    def backward(self, grad_out, per_sample: bool = False):
        if self._cols is None:
            raise RuntimeError("backward called before forward(train=True)")
        batch = grad_out.shape[0]
        dy = grad_out.reshape(batch, self.out_channels, -1)  # (B, out_c, L)

        if per_sample:
            dw = np.matmul(dy, self._cols.transpose(0, 2, 1)).reshape(
                batch, *self.weight.shape
            )
            grads = {"weight": dw}
            if self.bias is not None:
                grads["bias"] = dy.sum(axis=2)
        else:
            dw = np.tensordot(dy, self._cols, ([0, 2], [0, 2])).reshape(
                self.weight.shape
            )
            grads = {"weight": dw}
            if self.bias is not None:
                grads["bias"] = dy.sum(axis=(0, 2))
        return self._input_grad(dy), grads

    def backward_norm_sq(self, grad_out):
        if self._cols is None:
            raise RuntimeError("backward called before forward(train=True)")
        batch = grad_out.shape[0]
        dy = grad_out.reshape(batch, self.out_channels, -1)  # (B, O, L)
        # Ghost-norm Gram trick: ||E_i A_i^T||_F^2 = <A_i^T A_i, E_i^T E_i>_F
        # over the (L, L) spatial Grams when those are smaller than the
        # (B, O, K) per-sample gradients; the backend picks the crossover
        # (and may block the Grams over the batch for cache residency).
        # When it forms the per-sample gradients instead, they are kept
        # for accumulate_clipped.
        norm_sq, self._norm_pass_dw = get_backend().conv_norm_sq(
            self._cols, dy, self.bias is not None
        )
        return self._input_grad(dy), norm_sq

    def accumulate_clipped(self, grad_out, factors):
        if self._cols is None:
            raise RuntimeError("backward called before forward(train=True)")
        batch = grad_out.shape[0]
        dy = grad_out.reshape(batch, self.out_channels, -1)
        if self._norm_pass_dw is None:
            dw, db = get_backend().conv_clip_accumulate(
                self._cols, dy, factors, self.bias is not None
            )
        else:
            # The norm pass already formed each sample's gradient: the
            # clipped sum is one GEMV with the factors.
            dw = factors @ self._norm_pass_dw.reshape(batch, -1)
            db = factors @ dy.sum(axis=2) if self.bias is not None else None
        grads = {"weight": dw.reshape(self.weight.shape)}
        if db is not None:
            grads["bias"] = db
        return grads

    def params(self) -> dict[str, np.ndarray]:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def set_param(self, name: str, value: np.ndarray) -> None:
        if name == "weight":
            self.weight = coerce_param("Conv2d", name, value, self.weight.shape)
        elif name == "bias" and self.bias is not None:
            self.bias = coerce_param("Conv2d", name, value, self.bias.shape)
        else:
            raise KeyError(f"Conv2d has no parameter {name!r}")

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel={self.kernel}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class MaxPool2d(Layer):
    """Non-overlapping max pooling (kernel == stride); H, W must be divisible.

    Both passes run on the active backend (``maxpool2d`` and
    ``maxpool2d_backward``; ``cext`` runs 2x2 windows in C).  Between them
    the layer keeps only the tie mask, a bool array of the input's shape.
    Ties share the gradient equally, which is a valid subgradient and keeps
    the adjoint linear.
    """

    def __init__(self, kernel: int):
        if kernel < 1:
            raise ValueError(f"kernel must be >= 1, got {kernel}")
        self.kernel = kernel
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected (B, C, H, W), got {x.shape}")
        if x.shape[2] % self.kernel or x.shape[3] % self.kernel:
            raise ValueError(
                f"input {x.shape[2]}x{x.shape[3]} not divisible by pooling "
                f"kernel {self.kernel}"
            )
        out, mask = get_backend().maxpool2d(x, self.kernel)
        if train:
            self._mask = mask
        return out

    def backward(self, grad_out, per_sample: bool = False):
        if self._mask is None:
            raise RuntimeError("backward called before forward(train=True)")
        check_maxpool_backward(grad_out, self._mask, self.kernel)
        return get_backend().maxpool2d_backward(grad_out, self._mask, self.kernel), {}

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel={self.kernel})"


class GlobalAvgPool2d(Layer):
    """Average over all spatial positions: ``(B, C, H, W) -> (B, C)``."""

    def __init__(self):
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected (B, C, H, W), got {x.shape}")
        if train:
            self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out, per_sample: bool = False):
        if self._x_shape is None:
            raise RuntimeError("backward called before forward(train=True)")
        _, _, height, width = self._x_shape
        grad = grad_out[:, :, None, None] / (height * width)
        return np.broadcast_to(grad, self._x_shape).copy(), {}
