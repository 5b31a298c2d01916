"""Ghost clipping vs materialized per-sample gradients: speed and memory.

The headline claim of the ghost fast path is O(P) gradient memory instead
of O(B*P) with no change to the DP release.  ``test_ghost_wins`` measures
both sides directly (median wall time + tracemalloc peak) and asserts the
ghost path keeps its 2x peak-memory win *without* giving up speed (at
least 1.0x the materialized path — the cached-upstream second backward
plus the backend accumulate kernels removed ghost's old speed penalty);
``test_ghost_sum_matches`` pins the numerical agreement the speedup is
not allowed to cost.  ``test_geodp_step_competitive`` checks the other
acceptance bound of the backend layer: a fused GeoDP perturbation costs
at most 1.5x a classic DP-SGD perturbation under a compiled backend.
"""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from repro.backend import get_backend, use_backend
from repro.core import perturb_dp_batch, perturb_geodp_batch
from repro.data import make_mnist_like
from repro.models import build_cnn
from repro.privacy.clipping import AutoSClipping, FlatClipping, PsacClipping

BATCH = 64
NUM_CLASSES = 100  # a wide head puts the model in ghost's regime: P >> activations


@pytest.fixture(scope="module")
def setup():
    data = make_mnist_like(BATCH, rng=0, size=16)
    model = build_cnn((1, 16, 16), num_classes=NUM_CLASSES, channels=(16, 32), rng=0)
    y = np.random.default_rng(1).integers(0, NUM_CLASSES, size=BATCH)
    return model, data.x, y


def materialized_clipped_sum(model, x, y, clipping):
    _, grads = model.loss_and_per_sample_gradients(x, y)
    return clipping.clip(grads).sum(axis=0)


def ghost_clipped_sum(model, x, y, clipping):
    _, summed, _ = model.loss_and_clipped_grad_sum(x, y, clipping)
    return summed


def _best_times(fn_a, fn_b, repeats=20):
    """Minimum wall seconds for two callables, measured interleaved.

    Alternating A/B within each repetition keeps slow drift in machine
    state (frequency scaling, cache pressure from other processes) from
    landing on one side only, which matters when the two minima feed a
    ratio bound.
    """
    fn_a()
    fn_b()
    times_a, times_b = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - start)
    return min(times_a), min(times_b)


def measure(fn, repeats=5):
    """(median seconds, tracemalloc peak bytes) for one callable."""
    fn()  # warm caches outside the timed region
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return float(np.median(times)), peak


def test_ghost_wins(setup, report):
    model, x, y = setup
    # The speed bound is a property of the accelerated ghost kernels, so
    # measure under the best available backend ("auto" resolves to fused
    # at worst, which is always available).  The materialized path does
    # not dispatch to backend kernels and is unaffected by the selection.
    with use_backend("auto"):
        backend = get_backend().name
        mat_time, mat_peak = measure(
            lambda: materialized_clipped_sum(model, x, y, FlatClipping(1.0))
        )
        ghost_time, ghost_peak = measure(
            lambda: ghost_clipped_sum(model, x, y, FlatClipping(1.0))
        )
    speedup = mat_time / ghost_time
    mem_ratio = mat_peak / ghost_peak
    report(
        "bench_ghost",
        "Ghost clipping vs materialized per-sample gradients "
        f"(CNN, B={BATCH}, P={model.num_params}, backend={backend!r})\n"
        f"materialized: {mat_time * 1e3:8.2f} ms  peak {mat_peak / 2**20:7.2f} MiB\n"
        f"ghost:        {ghost_time * 1e3:8.2f} ms  peak {ghost_peak / 2**20:7.2f} MiB\n"
        f"speedup {speedup:.2f}x, peak-memory ratio {mem_ratio:.2f}x",
    )
    assert speedup >= 1.0 and mem_ratio >= 2.0, (
        f"ghost must match materialize speed and halve peak memory: "
        f"{speedup:.2f}x speed, {mem_ratio:.2f}x memory"
    )


def test_geodp_step_competitive(report):
    """Fused GeoDP perturbation <= 1.5x DP-SGD perturbation (compiled backend).

    The spherical round trip is GeoDP's only extra cost per release (the
    noise draw counts are identical: d values per row either way), so with
    the round trip fused into one compiled pass the premium over classic
    DP-SGD must be bounded.  Skipped when only pure-numpy backends are
    available — the bound is a property of the compiled kernels.
    """
    with use_backend("auto"):
        backend = get_backend()
        if backend.name != "cext":
            pytest.skip(f"no compiled backend available (best: {backend.name!r})")
        grads = np.random.default_rng(0).normal(size=(64, 5000)) * 0.01
        noise_rng = np.random.default_rng(2)
        # Release garbage left behind by earlier benchmarks in the same
        # process — allocator churn from the ghost/materialize runs
        # otherwise inflates the GeoDP side by ~10%.
        gc.collect()
        # Interleaved best-of-N wall time: both sides are deterministic
        # CPU work, so the minimum is the noise-robust estimator for a
        # ratio bound.
        dp_time, geodp_time = _best_times(
            lambda: perturb_dp_batch(grads, 0.1, 1.0, 1024, noise_rng),
            lambda: perturb_geodp_batch(grads, 0.1, 1.0, 1024, 0.1, noise_rng),
        )
    ratio = geodp_time / dp_time
    report(
        "bench_ghost_geodp_step",
        f"GeoDP vs DP-SGD perturbation under backend {backend.name!r} "
        f"(m=64, d=5000)\n"
        f"perturb_dp_batch:    {dp_time * 1e3:8.2f} ms\n"
        f"perturb_geodp_batch: {geodp_time * 1e3:8.2f} ms\n"
        f"ratio {ratio:.2f}x (bound: 1.5x)",
    )
    assert ratio <= 1.5, (
        f"fused GeoDP step costs {ratio:.2f}x a DP-SGD step (bound 1.5x)"
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: FlatClipping(1.0),
        lambda: AutoSClipping(1.0),
        lambda: PsacClipping(1.0),
    ],
    ids=["flat", "autos", "psac"],
)
def test_ghost_sum_matches(setup, make):
    model, x, y = setup
    ref = materialized_clipped_sum(model, x, y, make())
    got = ghost_clipped_sum(model, x, y, make())
    rel = np.abs(got - ref).max() / (np.abs(ref).max() + 1e-30)
    assert rel <= 1e-8, f"ghost sum deviates by {rel:.2e} relative"


def test_materialized_step(benchmark, setup):
    model, x, y = setup
    benchmark(materialized_clipped_sum, model, x, y, FlatClipping(1.0))


def test_ghost_step(benchmark, setup):
    model, x, y = setup
    benchmark(ghost_clipped_sum, model, x, y, FlatClipping(1.0))
