"""RNG-stream discipline: switching backends never changes randomness.

The backend contract says kernels are deterministic — noise is drawn by
the callers in a fixed order and handed in pre-scaled.  These tests prove
it observationally: the generator state after a release is identical for
every backend, sigma = 0 consumes nothing, and a full DP training run
(accounting + hash-chained release ledger) replays bit-identically across
backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import use_backend
from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.perturbation import perturb_geodp_batch
from repro.privacy.accountant import RdpAccountant
from repro.privacy.ledger import ReleaseLedger, verify_ledger

from tests.backend.conftest import ALWAYS_AVAILABLE, parity_backends

pytestmark = pytest.mark.backend

ALL_BACKENDS = list(ALWAYS_AVAILABLE) + [
    name for name in parity_backends() if name not in ALWAYS_AVAILABLE
]


def _rng_state(rng):
    return rng.bit_generator.state


def test_perturb_consumes_identical_stream_across_backends():
    """Same draws, in the same order, whatever kernel runs afterwards."""
    grads = np.random.default_rng(3).normal(size=(6, 40))
    states, outputs = [], []
    for name in ALL_BACKENDS:
        rng = np.random.default_rng(123)
        with use_backend(name):
            out = perturb_geodp_batch(grads, 1.0, 0.8, 32, 0.2, rng)
        states.append(_rng_state(rng))
        outputs.append(out)
    for state in states[1:]:
        assert state == states[0], "backend changed the RNG stream"
    for out in outputs[1:]:
        np.testing.assert_allclose(out, outputs[0], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("backend_name", parity_backends())
def test_public_perturbation_rng_stream_and_output(backend_name):
    """A blocked release draws the reference's stream and matches its output.

    (48, 4096) crosses the fused backend's blocking threshold (12 row
    blocks of 4), so the blocked kernels run, not the small-input path.
    """
    grads = np.random.default_rng(6).normal(size=(48, 4096)) * 0.01
    results = {}
    for name in ("reference", backend_name):
        rng = np.random.default_rng(123)
        with use_backend(name):
            out = perturb_geodp_batch(grads, 1.0, 0.8, 32, 0.2, rng)
        results[name] = (out, _rng_state(rng))
    ref_out, ref_state = results["reference"]
    out, state = results[backend_name]
    assert state == ref_state, f"{backend_name} changed the RNG stream"
    np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-10)


def test_sigma_zero_consumes_no_randomness():
    grads = np.random.default_rng(4).normal(size=(5, 24))
    for name in ALL_BACKENDS:
        rng = np.random.default_rng(99)
        before = _rng_state(rng)
        with use_backend(name):
            perturb_geodp_batch(grads, 1.0, 0.0, 32, 0.2, rng)
        assert _rng_state(rng) == before, f"sigma=0 drew randomness on {name!r}"


def _train_release_run(optimizer_cls, backend_name, **extra):
    """Tiny DP run: 4 steps of clipped-sum + release with full accounting."""
    data_rng = np.random.default_rng(11)
    grads_per_step = [data_rng.normal(size=(8, 30)) for _ in range(4)]
    accountant = RdpAccountant()
    ledger = ReleaseLedger(delta=1e-5)
    with use_backend(backend_name):
        opt = optimizer_cls(
            learning_rate=0.1,
            clipping=1.0,
            noise_multiplier=1.1,
            rng=np.random.default_rng(2024),
            accountant=accountant,
            sample_rate=0.01,
            ledger=ledger,
            **extra,
        )
        params = np.zeros(30)
        for grads in grads_per_step:
            params = opt.step(params, grads)
    return params, accountant, ledger


@pytest.mark.parametrize(
    "optimizer_cls,extra",
    [(DpSgdOptimizer, {}), (GeoDpSgdOptimizer, {"beta": 0.2})],
    ids=["dpsgd", "geodp"],
)
def test_ledger_replay_bit_identical_across_backends(optimizer_cls, extra):
    """Accounting and the hash-chained ledger must not see the backend."""
    base_params, base_acct, base_ledger = _train_release_run(
        optimizer_cls, "reference", **extra
    )
    verify_ledger(base_ledger, accountant=base_acct)
    for name in ALL_BACKENDS:
        if name == "reference":
            continue
        params, acct, ledger = _train_release_run(optimizer_cls, name, **extra)
        verify_ledger(ledger, accountant=acct)
        # Hash chain identical entry by entry => bit-identical releases.
        assert len(ledger.entries) == len(base_ledger.entries) == 4
        assert ledger.head == base_ledger.head, (
            f"ledger diverged on backend {name!r}"
        )
        np.testing.assert_allclose(params, base_params, rtol=1e-10, atol=1e-12)
        assert acct.history == base_acct.history
