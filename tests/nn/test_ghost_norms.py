"""Ghost-norm parity: ``backward_norm_sq`` vs materialized per-sample grads.

Every parametric layer's ghost squared norm must equal the squared L2 norm
of its materialized per-sample parameter gradient, and the returned input
gradient must match the plain backward pass.  These are the invariants the
ghost-clipping fast path (:meth:`Sequential.loss_and_clipped_grad_sum`)
rests on.
"""

import numpy as np
import pytest

from repro.backend import get_backend, use_backend
from repro.nn import (
    Conv2d,
    Embedding,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    Sequential,
    SoftmaxCrossEntropy,
    conv_output_shape,
)

from tests.backend.conftest import parity_backends

#: Every available backend; the ghost hooks dispatch their kernels to it.
BACKENDS = ("reference", *parity_backends())


def materialized_norm_sq(layer, grad_out):
    """Reference: per-sample norm^2 via the full per-sample gradients."""
    _, grads = layer.backward(grad_out, per_sample=True)
    batch = grad_out.shape[0]
    total = np.zeros(batch)
    for g in grads.values():
        total += np.einsum("bk,bk->b", g.reshape(batch, -1), g.reshape(batch, -1))
    return total


def check_ghost_parity(layer, x, rtol=1e-12):
    """Ghost norms and input gradient match the materialized pass, under
    every available backend."""
    for name in BACKENDS:
        with use_backend(name):
            rng = np.random.default_rng(0)
            out = layer.forward(x, train=True)
            grad_out = rng.normal(size=out.shape)

            grad_in_ref, _ = layer.backward(grad_out, per_sample=False)
            expected = materialized_norm_sq(layer, grad_out)

            grad_in, norm_sq = layer.backward_norm_sq(grad_out)
            assert norm_sq.shape == (x.shape[0],)
            assert np.allclose(norm_sq, expected, rtol=rtol, atol=1e-12), (
                f"{layer!r} on {name}: ghost norm^2 max rel err "
                f"{np.abs(norm_sq - expected).max() / (expected.max() + 1e-30)}"
            )
            assert np.allclose(grad_in, grad_in_ref, rtol=1e-12, atol=1e-12), name


def count_clip_accumulates(monkeypatch) -> list:
    """Record each call of the active backend's ``conv_clip_accumulate``."""
    kernel_class = type(get_backend())
    original = kernel_class.conv_clip_accumulate
    calls = []

    def counted(self, *args):
        calls.append(args[0].shape)
        return original(self, *args)

    monkeypatch.setattr(kernel_class, "conv_clip_accumulate", counted)
    return calls


class TestLinearGhost:
    def test_with_bias(self):
        rng = np.random.default_rng(1)
        check_ghost_parity(Linear(7, 5, rng=0), rng.normal(size=(6, 7)))

    def test_without_bias(self):
        rng = np.random.default_rng(2)
        check_ghost_parity(Linear(4, 3, rng=0, bias=False), rng.normal(size=(5, 4)))

    def test_single_sample(self):
        rng = np.random.default_rng(3)
        check_ghost_parity(Linear(3, 2, rng=0), rng.normal(size=(1, 3)))


class TestConv2dGhost:
    @pytest.mark.parametrize(
        "stride,padding,bias",
        [(1, 0, True), (1, 1, True), (2, 1, True), (1, 0, False)],
    )
    def test_parity(self, stride, padding, bias):
        rng = np.random.default_rng(4)
        layer = Conv2d(3, 4, 3, stride=stride, padding=padding, rng=0, bias=bias)
        check_ghost_parity(layer, rng.normal(size=(5, 3, 8, 8)))

    def test_gram_branch(self):
        # Small spatial extent: L^2 <= O*K selects the Gram-trick branch.
        rng = np.random.default_rng(5)
        layer = Conv2d(2, 8, 3, rng=0)
        x = rng.normal(size=(4, 2, 4, 4))  # L = 4 output positions
        assert 4 * 4 <= 8 * (2 * 3 * 3)
        check_ghost_parity(layer, x)

    def test_direct_branch(self):
        # Large spatial extent: L^2 > O*K materializes per-sample (B, O, K).
        rng = np.random.default_rng(6)
        layer = Conv2d(1, 1, 1, rng=0)
        x = rng.normal(size=(3, 1, 6, 6))  # L = 36, O*K = 1
        assert 36 * 36 > 1 * 1
        check_ghost_parity(layer, x)

    # The test_gram_branch and test_direct_branch geometries: (in, out,
    # kernel, x shape, whether the norm pass forms per-sample gradients).
    CROSSOVER_SIDES = {
        "gram": (2, 8, 3, (4, 2, 4, 4), False),
        "direct": (1, 1, 1, (3, 1, 6, 6), True),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("side", ["gram", "direct"])
    def test_accumulate_clipped_parity(self, monkeypatch, backend, side):
        # Pass 2 equals one batch backward on the factor-scaled upstream; on
        # the direct side it contracts the norm pass's per-sample gradients
        # instead of calling the clipped-accumulate kernel.
        in_c, out_c, kernel, x_shape, kept = self.CROSSOVER_SIDES[side]
        rng = np.random.default_rng(17)
        layer = Conv2d(in_c, out_c, kernel, rng=0)
        with use_backend(backend):
            out = layer.forward(rng.normal(size=x_shape), train=True)
            grad_out = rng.normal(size=out.shape)
            factors = rng.uniform(0.1, 1.0, size=x_shape[0])
            layer.backward_norm_sq(grad_out)
            calls = count_clip_accumulates(monkeypatch)
            grads = layer.accumulate_clipped(grad_out, factors)
            _, expected = layer.backward(grad_out * factors[:, None, None, None])
        assert len(calls) == (0 if kept else 1)
        assert grads.keys() == expected.keys() == layer.params().keys()
        for name, value in expected.items():
            assert np.allclose(grads[name], value, rtol=1e-12, atol=1e-12), name

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_new_forward_drops_kept_gradients(self, backend):
        # A forward between the norm pass and pass 2 starts a new batch of
        # the same shape: pass 2 must contract that batch, never the
        # per-sample gradients the previous norm pass kept.
        in_c, out_c, kernel, x_shape, _ = self.CROSSOVER_SIDES["direct"]
        rng = np.random.default_rng(18)
        layer = Conv2d(in_c, out_c, kernel, rng=0)
        factors = rng.uniform(0.1, 1.0, size=x_shape[0])
        with use_backend(backend):
            out = layer.forward(rng.normal(size=x_shape), train=True)
            layer.backward_norm_sq(rng.normal(size=out.shape))
            layer.forward(rng.normal(size=x_shape), train=True)
            grad_out = rng.normal(size=out.shape)
            grads = layer.accumulate_clipped(grad_out, factors)
            _, expected = layer.backward(grad_out * factors[:, None, None, None])
        for name, value in expected.items():
            assert np.allclose(grads[name], value, rtol=1e-12, atol=1e-12), name


class TestEmbeddingGhost:
    def test_distinct_tokens(self):
        layer = Embedding(11, 6, rng=0)
        tokens = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        check_ghost_parity(layer, tokens)

    def test_repeated_tokens(self):
        # Repeated tokens make per-row gradients interact: the positional
        # Gram must be masked by token equality, not just summed.
        layer = Embedding(5, 4, rng=0)
        tokens = np.array([[1, 1, 1, 2], [0, 3, 0, 3], [4, 4, 4, 4]])
        check_ghost_parity(layer, tokens)


class TestResidualGhost:
    def test_identity_shortcut(self):
        rng = np.random.default_rng(10)
        check_ghost_parity(ResidualBlock(3, 3, rng=0), rng.normal(size=(4, 3, 6, 6)))

    def test_projection_shortcut(self):
        rng = np.random.default_rng(11)
        block = ResidualBlock(3, 5, stride=2, rng=0)
        check_ghost_parity(block, rng.normal(size=(4, 3, 6, 6)))

    @pytest.mark.parametrize(
        "out_channels,stride", [(3, 1), (5, 2)], ids=["identity", "projection"]
    )
    def test_accumulate_clipped_parity(self, out_channels, stride):
        # Pass 2 from the norm pass's cached upstreams equals one batch
        # backward on the factor-scaled block upstream.
        rng = np.random.default_rng(14)
        block = ResidualBlock(3, out_channels, stride=stride, rng=0)
        x = rng.normal(size=(4, 3, 6, 6))
        grad_out = rng.normal(size=block.forward(x, train=False).shape)
        factors = rng.uniform(0.1, 1.0, size=4)

        for backend in BACKENDS:
            with use_backend(backend):
                block.forward(x, train=True)
                block.backward_norm_sq(grad_out)
                grads = block.accumulate_clipped(grad_out, factors)
                _, expected = block.backward(grad_out * factors[:, None, None, None])

            assert grads.keys() == expected.keys() == block.params().keys()
            for name, value in expected.items():
                assert np.allclose(grads[name], value, rtol=1e-12, atol=1e-12), (
                    backend,
                    name,
                )

    def test_accumulate_clipped_requires_norm_pass(self):
        rng = np.random.default_rng(15)
        block = ResidualBlock(3, 5, stride=2, rng=0)
        x = rng.normal(size=(2, 3, 6, 6))
        for backend in BACKENDS:
            with use_backend(backend):
                out = block.forward(x, train=True)
                with pytest.raises(RuntimeError, match="backward_norm_sq"):
                    block.accumulate_clipped(np.ones_like(out), np.ones(2))
                # A new forward makes the previous norm pass's upstreams stale.
                block.backward_norm_sq(np.ones_like(out))
                block.forward(x, train=True)
                with pytest.raises(RuntimeError, match="backward_norm_sq"):
                    block.accumulate_clipped(np.ones_like(out), np.ones(2))


class TestParameterFreeGhost:
    @pytest.mark.parametrize("layer,shape", [
        (ReLU(), (4, 6)),
        (Flatten(), (4, 2, 3, 3)),
        (MaxPool2d(2), (4, 2, 4, 4)),
    ])
    def test_zero_contribution(self, layer, shape):
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape)
        out = layer.forward(x, train=True)
        grad_out = rng.normal(size=out.shape)
        grad_in_ref, _ = layer.backward(grad_out, per_sample=False)
        layer.forward(x, train=True)
        grad_in, norm_sq = layer.backward_norm_sq(grad_out)
        assert np.array_equal(norm_sq, np.zeros(shape[0]))
        assert np.allclose(grad_in, grad_in_ref)


class TestModelGhostNorms:
    @pytest.mark.parametrize("builder", ["cnn", "resnet", "text", "mlp"])
    def test_full_model_parity(self, builder):
        from repro.models import build_cnn, build_resnet
        from repro.models.text import build_text_classifier

        rng = np.random.default_rng(13)
        if builder == "cnn":
            model = build_cnn(input_shape=(1, 8, 8), rng=0)
            x = rng.normal(size=(6, 1, 8, 8))
        elif builder == "resnet":
            model = build_resnet(input_shape=(3, 8, 8), rng=0)
            x = rng.normal(size=(4, 3, 8, 8))
        elif builder == "text":
            model = build_text_classifier(20, 3, rng=0)
            x = rng.integers(0, 20, size=(6, 5))
        else:
            model = Sequential(
                [Linear(10, 8, rng=0), ReLU(), Linear(8, 3, rng=1)],
                SoftmaxCrossEntropy(),
            )
            x = rng.normal(size=(6, 10))
        y = rng.integers(0, 3, size=x.shape[0])

        losses, per_sample = model.loss_and_per_sample_gradients(x, y)
        expected = np.sqrt(np.einsum("bp,bp->b", per_sample, per_sample))

        outputs = model.forward(x, train=True)
        grad_out = model.loss.gradient(outputs, y)
        norm_sq, _, grad_in = model.per_sample_grad_norms(grad_out)
        norms = np.sqrt(norm_sq)
        assert grad_in.shape[0] == x.shape[0]
        assert np.allclose(norms, expected, rtol=1e-10, atol=1e-12), (
            np.abs(norms - expected).max()
        )


def resnet_conv_lengths(model, height: int, width: int) -> list[tuple[Conv2d, int]]:
    """``(conv, L)`` for every convolution of a ``build_resnet`` model, where
    ``L`` is the number of output positions on a ``height x width`` input."""
    lengths = []

    def visit(conv, h, w):
        out_h, out_w = conv_output_shape(h, w, conv.kernel, conv.stride, conv.padding)
        lengths.append((conv, out_h * out_w))
        return out_h, out_w

    for layer in model.layers:
        if isinstance(layer, Conv2d):
            height, width = visit(layer, height, width)
        elif isinstance(layer, ResidualBlock):
            if layer.projection is not None:
                visit(layer.projection, height, width)
            height, width = visit(layer.conv1, height, width)
            visit(layer.conv2, height, width)
    return lengths


@pytest.mark.parametrize("backend", BACKENDS)
def test_resnet_pass_two_never_rewalks_the_chain(monkeypatch, backend):
    """After the clip factors exist, no input gradient is computed again,
    and only the Gram-side convolutions call the clipped-accumulate kernel:
    the others contract the per-sample gradients their norm pass formed."""
    from repro.models import build_resnet
    from repro.privacy.clipping import FlatClipping

    rng = np.random.default_rng(16)
    model = build_resnet(input_shape=(3, 8, 8), rng=0)
    x = rng.normal(size=(4, 3, 8, 8))
    y = rng.integers(0, 10, size=4)
    _, per_sample = model.loss_and_per_sample_gradients(x, y)
    clipped, _ = FlatClipping(0.5).clip_with_norms(per_sample)

    lengths = resnet_conv_lengths(model, 8, 8)
    gram_side = sum(
        length * length <= conv.out_channels * conv.in_channels * conv.kernel**2
        for conv, length in lengths
    )
    assert 0 < gram_side < len(lengths)  # the model spans the crossover

    def forbidden(*args, **kwargs):
        raise AssertionError("ghost pass 2 re-walked the layer chain")

    clipping = FlatClipping(0.5)
    clip_factors = clipping.clip_factors
    pass_two_calls = []

    def clip_factors_then_forbid(norms):
        factors = clip_factors(norms)
        monkeypatch.setattr(Conv2d, "backward", forbidden)
        monkeypatch.setattr(ReLU, "backward", forbidden)
        monkeypatch.setattr(type(get_backend()), "col2im", forbidden)
        pass_two_calls.append(count_clip_accumulates(monkeypatch))
        return factors

    monkeypatch.setattr(clipping, "clip_factors", clip_factors_then_forbid)
    with use_backend(backend):
        _, summed, _ = model.loss_and_clipped_grad_sum(x, y, clipping)
    assert np.allclose(summed, clipped.sum(axis=0), rtol=1e-10, atol=1e-12)
    [calls] = pass_two_calls
    assert len(calls) == gram_side
