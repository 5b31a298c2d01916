"""``clip_factors`` contract: ``clip(G)[i] == clip_factors(norms)[i] * G[i]``.

The ghost fast path never materializes per-sample gradients, so the only
thing a strategy can apply is one scalar factor per sample, derived from
the ghost-computed norms.  The base class derives the materialized
``clip_with_norms`` from the same factors; these tests pin its output
bytes to each strategy's formula written out inline, so a change to the
shared derivation cannot move any strategy's clipped gradients.
"""

import numpy as np
import pytest

from repro.privacy.clipping import AutoSClipping, FlatClipping, PsacClipping

C = 1.3
GAMMA = 0.02


def make_grads(rng, n=64, d=300):
    grads = rng.normal(size=(n, d)) * rng.uniform(0.01, 5.0, size=(n, 1))
    grads[0] = 0.0  # zero gradient must not divide by zero
    return grads


@pytest.mark.parametrize(
    "strategy, scale",
    [
        (FlatClipping(C), lambda n: 1.0 / np.maximum(1.0, n / C)),
        (AutoSClipping(C, gamma=GAMMA), lambda n: C / (n + GAMMA)),
        (PsacClipping(C, gamma=GAMMA), lambda n: C * n / (n**2 + GAMMA)),
    ],
    ids=["flat", "autos", "psac"],
)
def test_factors_reproduce_clip(strategy, scale):
    grads = make_grads(np.random.default_rng(0))
    norms = np.sqrt(np.einsum("ij,ij->i", grads, grads))
    clipped, returned = strategy.clip_with_norms(grads)
    assert np.array_equal(returned, norms)
    assert np.array_equal(clipped, grads * scale(norms)[:, None])
    assert np.array_equal(strategy.clip_factors(norms), scale(norms))
    assert strategy.sensitivity() == C
