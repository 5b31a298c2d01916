"""Residual block for the paper's ResNet (§VI-A).

Each block contains two 3x3 convolutions and one ReLU ("each one containing
2 convolutional layers and 1 rectified linear unit"), with an identity
shortcut — or a 1x1 projection convolution when the channel count or stride
changes.  A trailing ReLU follows the addition, as in the original ResNet.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2d, Layer, ReLU

__all__ = ["ResidualBlock"]


class ResidualBlock(Layer):
    """``y = relu(conv2(relu(conv1(x))) + shortcut(x))``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        stride: int = 1,
        rng=None,
    ):
        from repro.utils.rng import as_rng

        rng = as_rng(rng)
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, rng=rng
        )
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=rng)
        if stride != 1 or in_channels != out_channels:
            self.projection: Conv2d | None = Conv2d(
                in_channels, out_channels, 1, stride=stride, padding=0, rng=rng, bias=False
            )
        else:
            self.projection = None
        self.relu_out = ReLU()
        # (conv1 upstream, conv2/projection upstream) from the last norm pass.
        self._upstream: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            # Upstreams cached by the norm pass belong to the previous forward.
            self._upstream = None
        main = self.conv2.forward(
            self.relu1.forward(self.conv1.forward(x, train), train), train
        )
        shortcut = self.projection.forward(x, train) if self.projection is not None else x
        return self.relu_out.forward(main + shortcut, train)

    def backward(self, grad_out, per_sample: bool = False):
        grad_sum, _ = self.relu_out.backward(grad_out, per_sample)
        # Main branch.
        grad, g2 = self.conv2.backward(grad_sum, per_sample)
        grad, _ = self.relu1.backward(grad, per_sample)
        grad_main, g1 = self.conv1.backward(grad, per_sample)
        # Shortcut branch.
        if self.projection is not None:
            grad_short, gp = self.projection.backward(grad_sum, per_sample)
        else:
            grad_short, gp = grad_sum, {}
        grads = {f"conv1.{k}": v for k, v in g1.items()}
        grads.update({f"conv2.{k}": v for k, v in g2.items()})
        grads.update({f"projection.{k}": v for k, v in gp.items()})
        return grad_main + grad_short, grads

    def backward_norm_sq(self, grad_out):
        # Compose the sub-layers' ghost contributions; the block's per-sample
        # gradient is the concatenation of its convolutions' gradients, so
        # the squared norms add.  Each convolution's upstream gradient is
        # kept for :meth:`accumulate_clipped`.
        grad_sum, _ = self.relu_out.backward(grad_out, per_sample=False)
        grad, n2 = self.conv2.backward_norm_sq(grad_sum)
        grad, _ = self.relu1.backward(grad, per_sample=False)
        grad_main, n1 = self.conv1.backward_norm_sq(grad)
        self._upstream = (grad, grad_sum)
        if self.projection is not None:
            grad_short, n_proj = self.projection.backward_norm_sq(grad_sum)
        else:
            grad_short, n_proj = grad_sum, 0.0
        return grad_main + grad_short, n1 + n2 + n_proj

    def accumulate_clipped(self, grad_out, factors):
        # Each convolution accumulates from the upstream the norm pass
        # cached, so the block's chain (ReLU masks, input gradients, col2im)
        # is never walked again; ``grad_out`` is already folded into them.
        if self._upstream is None:
            raise RuntimeError(
                "accumulate_clipped called before backward_norm_sq on the "
                "current forward(train=True)"
            )
        up1, up2 = self._upstream
        grads = {}
        for prefix, conv, upstream in (
            ("conv1", self.conv1, up1),
            ("conv2", self.conv2, up2),
            ("projection", self.projection, up2),
        ):
            if conv is not None:
                sub = conv.accumulate_clipped(upstream, factors)
                grads.update({f"{prefix}.{k}": v for k, v in sub.items()})
        return grads

    def params(self) -> dict[str, np.ndarray]:
        out = {f"conv1.{k}": v for k, v in self.conv1.params().items()}
        out.update({f"conv2.{k}": v for k, v in self.conv2.params().items()})
        if self.projection is not None:
            out.update(
                {f"projection.{k}": v for k, v in self.projection.params().items()}
            )
        return out

    def set_param(self, name: str, value: np.ndarray) -> None:
        sub, _, rest = name.partition(".")
        layer = {"conv1": self.conv1, "conv2": self.conv2, "projection": self.projection}.get(sub)
        if layer is None or not rest:
            raise KeyError(f"ResidualBlock has no parameter {name!r}")
        layer.set_param(rest, value)

    def __repr__(self) -> str:
        proj = ", projection" if self.projection is not None else ""
        return (
            f"ResidualBlock({self.conv1.in_channels}->{self.conv1.out_channels}, "
            f"stride={self.conv1.stride}{proj})"
        )
