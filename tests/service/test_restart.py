"""Durability: bit-identical restart accounting and kill-anywhere recovery.

The SIGKILL test is a real subprocess test: a child server process is
killed with no chance to clean up, and the restarted server must (a)
resume queued jobs, (b) leave finished jobs finished, and (c) carry
every tenant's hash chain forward bit-identically from the pre-kill
prefix.  The SIGTERM test exercises the CLI's graceful-drain path.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.service import BudgetServer, JobSpec, write_submission
from repro.service.persist import ServiceStore
from tests.service.test_concurrent import exact_budget_for

pytestmark = pytest.mark.service

SRC = str(Path(repro.__file__).resolve().parents[1])

SIGMA, SAMPLE_RATE, STEPS = 1.2, 0.02, 60


def spec(tenant, *, seed=0, work_ms=0.0):
    return JobSpec(
        tenant=tenant, sigma=SIGMA, sample_rate=SAMPLE_RATE, steps=STEPS,
        dim=8, seed=seed, work_ms=work_ms,
    )


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def done_count(state_dir, tenant=None) -> int:
    """Finished jobs (of ``tenant``, if given) in the newest on-disk snapshot."""
    try:
        state = ServiceStore(state_dir).load()
    except Exception:
        return 0  # snapshot mid-rotation; poll again
    if state is None:
        return 0
    return sum(
        1
        for r in state["queue"]["records"]
        if r["status"] == "done" and tenant in (None, r["spec"]["tenant"])
    )


def wait_for_done(state_dir, minimum, proc, log_path, *, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early (rc={proc.returncode}):\n"
                f"{Path(log_path).read_text()}"
            )
        if done_count(state_dir) >= minimum:
            return
        time.sleep(0.05)
    raise AssertionError(f"no {minimum} finished jobs within {timeout}s")


def test_restart_accounting_bit_identical(tmp_path):
    state_dir = tmp_path / "svc"
    server = BudgetServer(state_dir)
    server.add_tenant("alice", epsilon_budget=5.0)
    server.add_tenant("bob", epsilon_budget=0.05)
    for i in range(3):
        server.submit(spec("alice", seed=i))
    server.submit(spec("bob"))  # over budget -> refused annotation
    server.run_until_idle()

    curves = {t.name: t.accountant.rdp_curve().copy() for t in server.registry}
    heads = {t.name: t.ledger.head for t in server.registry}
    spent = {t.name: t.spent_epsilon() for t in server.registry}

    restarted = BudgetServer(state_dir)
    assert restarted.seq == server.seq
    assert restarted.queue.state_dict() == server.queue.state_dict()
    for tenant in restarted.registry:
        # The replayed accountant is *bit*-identical, not just close.
        assert np.array_equal(tenant.accountant.rdp_curve(), curves[tenant.name])
        assert tenant.ledger.head == heads[tenant.name]
        assert tenant.spent_epsilon() == spent[tenant.name]
    for verification in restarted.verify(tol=1e-9).values():
        assert verification.ok


def test_sigkill_midstream_resume_acceptance(tmp_path):
    """End-to-end acceptance: mixed two-tenant stream, SIGKILL, restart.

    alice's budget fits all 10 of her jobs exactly; bob's fits exactly 2
    of his 4 — the other 2 must be refused pre-dispatch with an auditable
    ledger annotation, and no kill timing may change any of that.
    """
    state_dir = tmp_path / "svc"
    setup = BudgetServer(state_dir)
    setup.add_tenant(
        "alice", epsilon_budget=exact_budget_for(SIGMA, SAMPLE_RATE, STEPS, 10)
    )
    setup.add_tenant(
        "bob", epsilon_budget=exact_budget_for(SIGMA, SAMPLE_RATE, STEPS, 2)
    )
    store = ServiceStore(state_dir)
    for i in range(8):
        write_submission(store.spool_dir, spec("alice", seed=i, work_ms=60.0))
    for i in range(4):
        write_submission(store.spool_dir, spec("bob", seed=100 + i, work_ms=60.0))

    script = tmp_path / "serve_child.py"
    script.write_text(
        "from repro.service.server import BudgetServer\n"
        f"server = BudgetServer({str(state_dir)!r}, workers=4, batch_size=4)\n"
        "server.serve(poll_interval=0.05)\n"
    )
    log_path = tmp_path / "child.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        wait_for_done(state_dir, 2, proc, log_path)
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

    server = BudgetServer(state_dir, workers=4, batch_size=4)
    # Pre-kill facts, read back from the surviving snapshot (jobs that
    # were mid-flight have already been reverted to "admitted").
    pre_hashes = {
        t.name: [r.entry_hash for r in t.ledger.entries] for t in server.registry
    }
    pre_done = {
        r.job_id: (r.attempts, r.finished_seq, r.result)
        for r in server.queue.by_status("done")
    }
    assert len(pre_done) >= 2
    assert not server.queue.by_status("running")
    for verification in server.verify(tol=1e-9).values():
        assert verification.ok  # chains intact straight after the kill

    # Two more submissions arrived while the server was down.
    for i in range(2):
        write_submission(store.spool_dir, spec("alice", seed=200 + i))
    server.run_until_idle()

    counts = server.queue.counts()
    assert counts["pending"] == counts["admitted"] == counts["running"] == 0
    assert counts["failed"] == 0
    assert counts["done"] == 12 and counts["refused"] == 2

    # >= 1 refusal, decided before dispatch, with an auditable record.
    refused = server.queue.by_status("refused")
    assert refused and all(r.attempts == 0 for r in refused)
    assert all(r.spec.tenant == "bob" for r in refused)
    bob = server.registry.get("bob")
    annotated = {
        r.meta["job_id"] for r in bob.ledger.entries if r.is_annotation
    }
    assert {r.job_id for r in refused} == annotated

    # Finished jobs were not re-run by the restart.
    for job_id, before in pre_done.items():
        record = server.queue.get(job_id)
        assert record.status == "done"
        assert (record.attempts, record.finished_seq, record.result) == before

    # The pre-kill chain is a bit-identical prefix of the final chain,
    # and no tenant's replayed spend exceeds its budget.
    for tenant in server.registry:
        hashes = [r.entry_hash for r in tenant.ledger.entries]
        prefix = pre_hashes[tenant.name]
        assert hashes[: len(prefix)] == prefix
        verification = tenant.verify(tol=1e-9)
        assert verification.ok, str(verification)
        assert verification.replayed_epsilon <= tenant.policy.epsilon_budget
    assert server.registry.get("alice").spent_epsilon() == (
        server.registry.get("alice").policy.epsilon_budget
    )


def test_sigterm_graceful_drain_via_cli(tmp_path):
    state_dir = tmp_path / "svc"
    setup = BudgetServer(state_dir)
    setup.add_tenant("alice", epsilon_budget=50.0)
    store = ServiceStore(state_dir)
    for i in range(6):
        write_submission(store.spool_dir, spec("alice", seed=i, work_ms=60.0))

    log_path = tmp_path / "serve.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--state-dir", str(state_dir), "--workers", "2",
             "--batch-size", "1", "--poll", "0.05"],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        wait_for_done(state_dir, 1, proc, log_path)
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
    output = log_path.read_text()
    assert rc == 0, output
    assert "draining" in output and "drained" in output

    server = BudgetServer(state_dir)
    counts = server.queue.counts()
    assert counts["running"] == 0  # the in-flight batch completed
    assert counts["done"] >= 1
    assert counts["done"] + counts["admitted"] == 6  # queued jobs survived
    finished = {
        r.job_id: (r.attempts, r.finished_seq)
        for r in server.queue.by_status("done")
    }
    server.run_until_idle()
    assert server.queue.counts()["done"] == 6
    for job_id, before in finished.items():
        record = server.queue.get(job_id)
        assert (record.attempts, record.finished_seq) == before
    assert server.verify(tol=1e-9)["alice"].ok
