"""Acceptance: live observability survives a SIGKILL.

A child ``repro serve --metrics-port`` process is fed an over-burn-rate
tenant until its ε-burn-rate alert fires on the live endpoint, then is
SIGKILLed with no chance to clean up.  The restarted server must (a)
serve a scrape whose per-tenant ε-spend gauges match the audited
``verify_ledger`` replay to 1e-9 and (b) still carry the fired alert as
a hash-chained ledger annotation.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.privacy.ledger import verify_ledger
from repro.service import BudgetServer, JobSpec, write_submission
from repro.service.persist import ServiceStore
from tests.service.test_restart import child_env, done_count

pytestmark = pytest.mark.service

#: Small budget so the linear burn-rate projection crosses it within the
#: horizon after a handful of jobs (RDP composition is sublinear: the
#: first admission is by far the most expensive, later ones add ~0.07ε).
BURNER_BUDGET = 2.0


def spec(tenant, *, seed=0, work_ms=0.0):
    return JobSpec(
        tenant=tenant, sigma=1.1, sample_rate=0.01, steps=100, dim=8,
        seed=seed, work_ms=work_ms,
    )


def _wait_for(predicate, proc, log_path, *, timeout=120.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early (rc={proc.returncode}):\n"
                f"{log_path.read_text()}"
            )
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def _metrics_base(log_path, proc):
    """The child's metrics base URL, parsed from its serve banner."""
    def find():
        match = re.search(r"\[metrics at (http://[^/\]]+)/metrics\]",
                          log_path.read_text())
        return match.group(1) if match else None

    return _wait_for(find, proc, log_path, message="metrics banner")


def _get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return json.load(resp)


def _scrape_epsilon_gauges(base) -> dict[str, float]:
    with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
        text = resp.read().decode()
    return {
        m.group(1): float(m.group(2))
        for m in re.finditer(
            r'^service_tenant_epsilon_spent\{tenant="([^"]+)"\} (\S+)$',
            text,
            re.M,
        )
    }


def test_sigkill_live_metrics_and_alert_acceptance(tmp_path):
    state_dir = tmp_path / "svc"
    setup = BudgetServer(state_dir)
    setup.add_tenant("burner", epsilon_budget=BURNER_BUDGET)
    setup.add_tenant("steady", epsilon_budget=50.0)
    store = ServiceStore(state_dir)

    log_path = tmp_path / "serve.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--state-dir", str(state_dir), "--workers", "2",
             "--batch-size", "1", "--poll", "0.05", "--metrics-port", "0"],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        base = _metrics_base(log_path, proc)

        # Feed jobs one at a time so the child's ε-spend gauge window
        # sees spend *increasing* across service cycles (submitting all
        # upfront would commit ε in one admission burst — a flat window
        # with burn rate zero, which correctly never fires).
        for i in range(5):
            write_submission(store.spool_dir, spec("burner", seed=i))
            if i % 2 == 0:
                write_submission(
                    store.spool_dir, spec("steady", seed=100 + i)
                )
            # Wait on the burner's own jobs: a count over both tenants can
            # pass before the last burner job is on disk, and a scrape
            # between its admission and its snapshot would show ε that
            # the kill then drops.
            _wait_for(
                lambda want=i + 1: done_count(state_dir, "burner") >= want,
                proc, log_path, message=f"{i + 1} finished burner jobs",
            )

        # The over-burn-rate tenant's alert fires on the live endpoint.
        active = _wait_for(
            lambda: [
                v for v in _get_json(base, "/alerts.json")["active"]
                if v["kind"] == "epsilon_burn_rate"
                and v["labels"].get("tenant") == "burner"
            ],
            proc, log_path, message="burn-rate alert on endpoint",
        )
        assert active[0]["severity"] == "critical"
        assert active[0]["projected"] > BURNER_BUDGET

        # The same verdict is visible as a firing gauge on the scrape.
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            scrape = resp.read().decode()
        assert re.search(
            r'^alert_firing\{rule="epsilon_burn_rate\[tenant=burner\]"\} 1\.0$',
            scrape, re.M,
        )
        pre_kill = _scrape_epsilon_gauges(base)
        assert set(pre_kill) == {"burner", "steady"}
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

    # ------------------------------------------------- restarted server
    server = BudgetServer(state_dir, metrics_port=0)
    try:
        base = server.metrics_address
        gauges = _scrape_epsilon_gauges(base)
        assert set(gauges) == {"burner", "steady"}
        for tenant in server.registry:
            verification = verify_ledger(
                tenant.ledger, tenant.accountant, strict=False
            )
            assert verification.ok, str(verification)
            # The scraped gauge equals the audited hash-chain replay.
            assert gauges[tenant.name] == pytest.approx(
                verification.replayed_epsilon, abs=1e-9
            )
        # ε committed before the kill is never lost: the restarted
        # replay is at least what the last pre-kill scrape showed.
        assert gauges["burner"] >= pre_kill["burner"] - 1e-9

        # The fired alert survived the kill as a ledger annotation on
        # the tenant's hash chain.
        burner = server.registry.get("burner")
        alerts = [
            r for r in burner.ledger.entries
            if r.mechanism == "annotation.alert"
        ]
        assert alerts, "burn-rate alert annotation lost by SIGKILL"
        meta = alerts[0].meta
        assert meta["alert"] == "epsilon_burn_rate[tenant=burner]"
        assert meta["projected"] > BURNER_BUDGET
        assert meta["severity"] == "critical"
        # And it still verifies as part of the chain.
        assert burner.verify(tol=1e-9).ok
    finally:
        server.shutdown()
