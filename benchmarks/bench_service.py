"""Budget-server admission throughput and latency gates.

Admission control sits on every submission path of the budget server, so
it has a hard speed floor: a single-process server must sustain at least
``MIN_DECISIONS_PER_SECOND`` admission decisions per second over a mixed
stream (several mechanism shapes, two tenants, including refusals), with
a p95 per-decision latency below ``MAX_P95_LATENCY_SECONDS``.  The stream
deliberately reuses a small set of (σ, sample-rate) pairs — the shape of
real tenant traffic — which exercises the memoized RDP curve cache in
:mod:`repro.privacy.rdp`; the first evaluation of each pair is done in a
warm-up pass so the timed region measures the sustained rate.

``service_section()`` packages the numbers for ``run_all.py``'s
``BENCH_<n>.json`` archives, where two rows of ``compare.py``'s table
enforce both floors on every archived run.
"""

from __future__ import annotations

import time

import pytest

from repro.service import BudgetServer, JobSpec

pytestmark = pytest.mark.service

#: Admission decisions per second a single process must sustain.
MIN_DECISIONS_PER_SECOND = 200.0
#: p95 per-decision latency ceiling (seconds).
MAX_P95_LATENCY_SECONDS = 0.05


def _mixed_stream() -> list[JobSpec]:
    """A representative submission mix: 4 mechanism shapes + refusals."""
    bulk = [
        JobSpec(tenant="bulk", sigma=sigma, sample_rate=rate, steps=steps)
        for sigma, rate, steps in (
            (1.1, 0.01, 100),
            (0.9, 0.02, 50),
            (1.5, 0.005, 200),
            (2.0, 0.04, 25),
        )
    ]
    # The capped tenant's budget fits nothing: every submission is a
    # refusal, so annotation chaining is part of the measured mix.
    return bulk + [JobSpec(tenant="capped", sigma=1.0, sample_rate=0.02, steps=100)]


def service_section(*, decisions: int = 500) -> dict:
    """Admission throughput/latency numbers for ``BENCH_<n>.json``."""
    server = BudgetServer()  # in-memory: admission only, nothing dispatched
    server.add_tenant("bulk", epsilon_budget=1e9)
    server.add_tenant("capped", epsilon_budget=1e-4)
    stream = _mixed_stream()
    for spec in stream:  # warm-up: fill the per-(σ, q) RDP curve cache
        server.submit(spec)

    latencies = []
    start = time.perf_counter()
    for i in range(decisions):
        spec = stream[i % len(stream)]
        before = time.perf_counter()
        server.submit(spec)
        latencies.append(time.perf_counter() - before)
    elapsed = time.perf_counter() - start

    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
    return {
        "decisions": {"value": decisions, "unit": "count"},
        "refused": {"value": server.queue.counts()["refused"], "unit": "count"},
        "decisions_per_s": {"value": decisions / elapsed, "unit": "1/s"},
        "admission_p50_s": {"value": p50, "unit": "s"},
        "admission_p95_s": {"value": p95, "unit": "s"},
    }


def test_admission_throughput_floor(report):
    section = service_section()
    per_second = section["decisions_per_s"]["value"]
    p95 = section["admission_p95_s"]["value"]
    report(
        "bench_service",
        f"budget-server admission over a mixed 2-tenant stream "
        f"({section['decisions']['value']} decisions, "
        f"{section['refused']['value']} refused)\n"
        f"throughput {per_second:10.0f} decisions/s (floor "
        f"{MIN_DECISIONS_PER_SECOND:.0f}/s)\n"
        f"p95        {p95 * 1e3:10.3f} ms/decision (ceiling "
        f"{MAX_P95_LATENCY_SECONDS * 1e3:.0f} ms)",
    )
    assert per_second >= MIN_DECISIONS_PER_SECOND, (
        f"admission sustained only {per_second:.0f} decisions/s "
        f"(required >= {MIN_DECISIONS_PER_SECOND:.0f})"
    )
    assert p95 <= MAX_P95_LATENCY_SECONDS, (
        f"p95 admission latency {p95:.4f}s exceeds "
        f"{MAX_P95_LATENCY_SECONDS}s"
    )


def test_every_decision_stays_audited():
    """Speed may not cost auditability: the whole stream replays exactly."""
    section = service_section(decisions=50)
    assert section["refused"]["value"] > 0
    server = BudgetServer()
    server.add_tenant("bulk", epsilon_budget=1e9)
    server.add_tenant("capped", epsilon_budget=1e-4)
    for i in range(50):
        server.submit(_mixed_stream()[i % 5])
    for verification in server.verify(tol=1e-9).values():
        assert verification.ok
