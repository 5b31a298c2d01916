"""The long-lived multi-tenant DP budget server.

:class:`BudgetServer` ties the pieces together into one process-wide
state machine:

* **submission** — :meth:`submit` (in-process) or the on-disk spool
  (:meth:`ingest_spool`, fed by ``repro submit``) hands each
  :class:`~repro.service.queue.JobSpec` to the admission controller,
  which commits or refuses the job's worst-case ε *before dispatch*;
* **dispatch** — admitted jobs run in fair-share order on the existing
  :func:`repro.runtime.run_cells` pool (``workers=N`` forks real worker
  processes), with per-job telemetry shipped back through
  :mod:`repro.runtime.shipback` and merged deterministically;
* **durability** — every state transition is snapshotted through
  :mod:`repro.checkpoint` (atomic, versioned, pruned), so a SIGKILL at
  any instant loses at most the in-flight transition: a restarted server
  replays its ledgers into bit-identical accountants, re-runs jobs that
  were mid-flight (at-least-once; their ε was already committed at
  admission, so a re-run never spends twice), and leaves finished jobs
  finished;
* **drain** — :meth:`serve` stops between phases when asked to shut
  down: the running batch completes, queued jobs stay queued in the last
  snapshot, and the next start picks them up.

Execution is intentionally pluggable (``runner=``): the default
:func:`execute_job` simulates the job's noise releases from its private
seed.  Whatever the runner does, the *accounting* never depends on it —
the budget math is a pure function of (σ, sample rate, steps) committed
at admission.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.privacy.ledger import ReleaseLedger
from repro.runtime.jobs import Job
from repro.runtime.scheduler import run_cells
from repro.runtime.shipback import job_recorder
from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.persist import ServiceStore
from repro.service.queue import JobQueue, JobRecord, JobSpec
from repro.service.tenants import TenantRegistry
from repro.telemetry.live.exporter import MetricsExporter
from repro.telemetry.live.health import AlertRule, HealthMonitor, alert_meta
from repro.telemetry.live.registry import MetricsRegistry
from repro.telemetry.recorder import MetricsRecorder

__all__ = ["BudgetServer", "execute_job"]

#: Cap on *simulated* release draws per job — accounting always uses the
#: spec's full step count; the simulation just has to touch the RNG.
MAX_SIMULATED_STEPS = 32


def execute_job(job: Job) -> dict:
    """Default runner: simulate the admitted job's noise releases.

    Runs in a forked pool worker.  Draws up to :data:`MAX_SIMULATED_STEPS`
    σ-scaled Gaussian release vectors from the job's private seed and
    returns summary statistics; sleeps ``work_ms`` first so tests and
    benchmarks can shape job duration.
    """
    spec = JobSpec.from_dict(job.payload)
    if spec.work_ms:
        time.sleep(spec.work_ms / 1000.0)
    rng = np.random.default_rng(spec.seed)
    simulated = min(spec.steps, MAX_SIMULATED_STEPS)
    norms = np.empty(simulated)
    for i in range(simulated):
        norms[i] = float(np.linalg.norm(rng.normal(0.0, spec.sigma, size=spec.dim)))
    recorder = job_recorder()
    if recorder is not None:
        recorder.increment("service_release_draws", simulated)
        recorder.record("service_noise_norm", float(norms.mean()))
    return {
        "steps_simulated": int(simulated),
        "noise_norm_mean": float(norms.mean()),
        "noise_norm_max": float(norms.max()),
    }


def _safe(runner):
    """Wrap a runner so per-job exceptions become failed results.

    One bad job must not abort the batch (``run_jobs`` would raise
    ``JobFailure`` after exhausting retries); the server marks the record
    ``failed`` instead and keeps serving.
    """

    def call(job):
        try:
            result = runner(job)
        except Exception as exc:
            return {"ok": False, "error": repr(exc)}
        if not isinstance(result, dict):
            result = {"value": result}
        return {"ok": True, **result}

    return call


class BudgetServer:
    """Multi-tenant budget server with admission control and durable state.

    Parameters
    ----------
    state_dir:
        Directory for snapshots and the submission spool.  ``None`` runs
        fully in memory (benchmarks, throwaway tests); otherwise the
        constructor **resumes** from the newest valid snapshot, reverting
        jobs that were mid-flight to ``admitted``.
    workers:
        Pool width for dispatch (``run_cells``); 1 = in-process.
    batch_size:
        Max admitted jobs dispatched per cycle (fair-share interleaved).
    keep_snapshots:
        Snapshot files retained after pruning.
    runner:
        Job execution callable ``runner(Job) -> dict``; defaults to
        :func:`execute_job`.
    metrics_port:
        When not ``None``, start a live metrics endpoint
        (:class:`~repro.telemetry.live.MetricsExporter`) on this port
        (``0`` = ephemeral) serving Prometheus text at ``/metrics`` and
        snapshots at ``/state.json`` / ``/alerts.json``.
    alert_rules:
        Extra :class:`~repro.telemetry.live.AlertRule` objects evaluated
        each cycle, on top of the built-in per-tenant ε burn-rate rules.
    alert_horizon_steps:
        Burn-rate projection horizon, in state transitions: a tenant
        alert fires when its spend trend would cross the budget within
        this many transitions.
    """

    def __init__(
        self,
        state_dir=None,
        *,
        workers: int = 1,
        batch_size: int = 8,
        keep_snapshots: int = 8,
        telemetry: MetricsRecorder | None = None,
        tracer=None,
        runner=None,
        ship_telemetry: bool = True,
        metrics_port: int | None = None,
        metrics_host: str = "127.0.0.1",
        alert_rules=None,
        alert_horizon_steps: int = 200,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.workers = workers
        self.batch_size = int(batch_size)
        self.telemetry = telemetry if telemetry is not None else MetricsRecorder()
        self.tracer = tracer
        self.runner = _safe(runner if runner is not None else execute_job)
        self.ship_telemetry = bool(ship_telemetry)
        self.registry = TenantRegistry()
        self.queue = JobQueue()
        self.admission = AdmissionController(self.registry, telemetry=self.telemetry)
        self.store = (
            None
            if state_dir is None
            else ServiceStore(state_dir, keep_snapshots=keep_snapshots)
        )
        #: Guards queue/registry composition + persistence (admission's
        #: budget race is handled separately by the per-tenant locks).
        self._state_lock = threading.RLock()
        #: Monotonic state-transition counter (snapshot sequence).
        self.seq = 0
        self._stop = threading.Event()
        #: Hash-chained home for server-scope (non-tenant) alert
        #: annotations; tenant alerts go into the tenant's own ledger.
        self.ops_ledger = ReleaseLedger(namespace="ops")
        #: Live metric surface.  The server recorder mirrors into it, so
        #: everything the runtime/backends/optimizers publish through
        #: telemetry is scrapeable; service-state gauges come from the
        #: collector below.
        self.metrics = MetricsRegistry()
        self.telemetry.bind_registry(self.metrics)
        self.metrics.register_collector(self._collect_service_metrics)
        from repro.backend import publish_metrics as _publish_backend

        self.metrics.register_collector(_publish_backend)
        self.alert_horizon_steps = int(alert_horizon_steps)
        self._extra_alert_rules = list(alert_rules or ())
        self.health = HealthMonitor(self.metrics, annotator=self._annotate_alert)
        if self.store is not None:
            state = self.store.load(telemetry=self.telemetry)
            if state is not None:
                self._load_state(state)
        self._refresh_alert_rules()
        self.metrics_exporter = None
        if metrics_port is not None:
            self.metrics_exporter = MetricsExporter(
                self.metrics,
                port=metrics_port,
                host=metrics_host,
                monitor=self.health,
                snapshot_extra=self._snapshot_extra,
            ).start()

    # ------------------------------------------------------------ tenants
    def add_tenant(
        self,
        name: str,
        *,
        epsilon_budget: float,
        delta: float = 1e-5,
        on_overspend: str = "refuse",
    ):
        """Register a tenant and persist the transition."""
        tenant = self.registry.add(
            name, epsilon_budget=epsilon_budget, delta=delta, on_overspend=on_overspend
        )
        with self._state_lock:
            self._persist()
        self._refresh_alert_rules()
        return tenant

    def set_tenant_budget(self, name: str, epsilon_budget: float):
        """Change a tenant's ε budget, then re-check its pending jobs."""
        tenant = self.registry.set_budget(name, epsilon_budget)
        with self._state_lock:
            self._persist()
        self._refresh_alert_rules()
        self.recheck_pending()
        return tenant

    # --------------------------------------------------------- submission
    def submit(
        self, spec: JobSpec, *, job_id: str | None = None
    ) -> tuple[JobRecord, AdmissionDecision]:
        """Admit-or-refuse one job and durably record the decision.

        Thread-safe: the budget check-and-commit serializes on the
        tenant's lock (two threads racing for the last slice of a budget
        cannot both win), while queue insertion and the snapshot
        serialize on the server lock.
        """
        with self._state_lock:
            seq = self.queue.next_seq()
        if job_id is None:
            job_id = f"job-{seq:06d}"
        self.telemetry.increment("service_submissions")
        decision = self.admission.admit(spec, job_id=job_id)
        status = {"admitted": "admitted", "refused": "refused", "queued": "pending"}[
            decision.outcome
        ]
        record = JobRecord(
            job_id=job_id,
            spec=spec,
            status=status,
            submit_seq=seq,
            projected_epsilon=decision.projected_epsilon,
            reason=decision.reason,
        )
        with self._state_lock:
            self.queue.add(record)
            self._persist()
        return record, decision

    def ingest_spool(self) -> int:
        """Pull spooled submissions through admission; returns the count.

        Idempotent under crashes: a spool file whose job id is already in
        the queue (admission snapshotted, deletion lost to a kill) is
        consumed without being admitted again — no double spend.
        """
        if self.store is None:
            return 0
        ingested = 0
        for path, job_id, spec in self.store.pending_submissions():
            try:
                self.queue.get(job_id)
            except KeyError:
                if spec.tenant not in self.registry:
                    # Leave unknown-tenant submissions spooled: the tenant
                    # may simply not be registered *yet*.
                    self.telemetry.increment("service_spool_unknown_tenant")
                    continue
                self.submit(spec, job_id=job_id)
                ingested += 1
            self.store.consume(path)
        if ingested:
            self.telemetry.increment("service_spool_ingested", ingested)
        return ingested

    def recheck_pending(self) -> int:
        """Re-run admission for parked jobs (queue policy); returns admits."""
        admitted = 0
        for record in self.queue.by_status("pending"):
            decision = self.admission.admit(record.spec, job_id=record.job_id)
            if decision.admitted:
                with self._state_lock:
                    record.status = "admitted"
                    record.projected_epsilon = decision.projected_epsilon
                    record.reason = decision.reason
                    self._persist()
                admitted += 1
        return admitted

    # ----------------------------------------------------------- dispatch
    def dispatch_once(self) -> int:
        """Run one fair-share batch of admitted jobs; returns its size."""
        with self._state_lock:
            counts = {t.name: t.dispatch_count for t in self.registry}
            batch = self.queue.next_batch(self.batch_size, counts)
            if not batch:
                return 0
            for record in batch:
                record.status = "running"
                record.attempts += 1
                self.registry.get(record.spec.tenant).dispatch_count += 1
            self._persist()
        self.telemetry.increment("service_batches")
        self.telemetry.increment("service_jobs_dispatched", len(batch))
        cells = [
            Job(key=record.job_id, payload=record.spec.to_dict()) for record in batch
        ]
        results = run_cells(
            self.runner,
            cells,
            workers=self.workers,
            telemetry=self.telemetry,
            tracer=self.tracer,
            ship_telemetry=self.ship_telemetry,
        )
        with self._state_lock:
            for record, result in zip(batch, results):
                ok = isinstance(result, dict) and result.get("ok", False)
                record.status = "done" if ok else "failed"
                record.result = result if isinstance(result, dict) else {"value": result}
                record.finished_seq = self.seq + 1
                self.telemetry.increment(
                    "service_jobs_completed" if ok else "service_jobs_failed"
                )
            self._persist()
        return len(batch)

    def run_once(self) -> int:
        """One server cycle: ingest, re-check pending, dispatch, health."""
        work = self.ingest_spool()
        work += self.recheck_pending()
        work += self.dispatch_once()
        self.evaluate_health()
        return work

    def run_until_idle(self) -> int:
        """Cycle until no submission is ingested and no job dispatches."""
        total = 0
        while not self._stop.is_set():
            work = self.run_once()
            if work == 0:
                break
            total += work
        return total

    def serve(
        self,
        *,
        poll_interval: float = 0.2,
        stop: threading.Event | None = None,
        max_cycles: int | None = None,
    ) -> None:
        """Serve until asked to stop; graceful drain between phases.

        ``stop`` (or :meth:`shutdown`) is honoured *between* cycle phases:
        the batch in flight always completes and its completion is
        snapshotted, queued jobs simply stay queued — the documented drain
        semantics.
        """
        stop = stop if stop is not None else self._stop
        cycles = 0
        while not stop.is_set() and not self._stop.is_set():
            work = self.run_once()
            cycles += 1
            if max_cycles is not None and cycles >= max_cycles:
                break
            if work == 0:
                stop.wait(poll_interval)
        self.telemetry.increment("service_drains")
        with self._state_lock:
            self._persist()

    def shutdown(self) -> None:
        """Ask a running :meth:`serve` loop to drain and exit."""
        self._stop.set()
        if self.metrics_exporter is not None:
            self.metrics_exporter.stop()
            self.metrics_exporter = None

    # ------------------------------------------------------------- health
    @property
    def metrics_address(self) -> str | None:
        """Base URL of the live endpoint, or ``None`` when not exported."""
        if self.metrics_exporter is None:
            return None
        return self.metrics_exporter.address

    def _collect_service_metrics(self, registry) -> None:
        """Registry collector: queue depths, per-tenant ε, phase times.

        Phase times are the attached tracer's ``phase`` span totals (none
        without a tracer).

        The ε gauges read each tenant's *live* accountant, which is
        always replay-derived from its hash-chained ledger (construction
        and restore both go through ``replay_accountant``), so a scrape
        after a SIGKILL restart matches ``verify_ledger`` replay exactly.
        """
        registry.set_gauge("service_seq", float(self.seq), step=self.seq)
        for status, count in sorted(self.queue.counts().items()):
            registry.set_gauge(
                "service_queue_depth",
                float(count),
                step=self.seq,
                labels={"status": status},
            )
        for tenant in self.registry:
            labels = {"tenant": tenant.name}
            spent = tenant.spent_epsilon()
            registry.set_gauge(
                "service_tenant_epsilon_spent", spent, step=self.seq, labels=labels
            )
            registry.set_gauge(
                "service_tenant_epsilon_remaining",
                tenant.remaining_epsilon(),
                step=self.seq,
                labels=labels,
            )
            registry.set_gauge(
                "service_tenant_epsilon_budget",
                tenant.policy.epsilon_budget,
                step=self.seq,
                labels=labels,
            )
        if self.tracer is not None:
            for phase, seconds in self.tracer.phase_totals(level="phase").items():
                registry.set_gauge(
                    "service_phase_seconds", seconds, labels={"phase": phase}
                )

    def _snapshot_extra(self) -> dict:
        """Service context appended to ``/state.json`` snapshots."""
        return {"service": {"seq": int(self.seq), "jobs": self.queue.counts()}}

    def _refresh_alert_rules(self) -> None:
        """Rebuild the rule set: one ε burn-rate rule per tenant + extras.

        Called whenever tenants or budgets change; budgets are captured
        at refresh time, so a budget change re-derives its rule.
        """
        rules = [
            AlertRule(
                "epsilon_burn_rate",
                labels={"tenant": tenant.name},
                budget=tenant.policy.epsilon_budget,
                horizon_steps=self.alert_horizon_steps,
                min_samples=2,
                severity="critical",
                description="projected ε spend crosses the tenant budget "
                f"within {self.alert_horizon_steps} transitions",
            )
            for tenant in self.registry
        ]
        rules.extend(self._extra_alert_rules)
        self.health.set_rules(rules)

    def _annotate_alert(self, verdict: dict) -> None:
        """Chain one fired alert into the owning ledger and persist it.

        Tenant-labelled alerts annotate the tenant's own ledger (under
        its admission lock, with its live accountant, so the recorded ε
        passes replay verification); everything else goes to the
        server's ``ops`` ledger.  The snapshot taken right after is what
        makes alerts survive a SIGKILL.
        """
        tenant_name = (verdict.get("labels") or {}).get("tenant")
        meta = alert_meta(verdict)
        if tenant_name is not None and tenant_name in self.registry:
            tenant = self.registry.get(tenant_name)
            with tenant.lock:
                tenant.ledger.record_annotation(
                    kind="alert", accountant=tenant.accountant, meta=meta
                )
        else:
            self.ops_ledger.record_annotation(kind="alert", meta=meta)
        self.telemetry.increment("service_alerts_annotated")
        with self._state_lock:
            self._persist()

    def evaluate_health(self) -> list[dict]:
        """Evaluate every alert rule once; returns newly-fired verdicts."""
        return self.health.evaluate(step=self.seq)

    # -------------------------------------------------------------- state
    def verify(self, *, tol: float = 1e-9, strict: bool = True) -> dict:
        """Replay-audit every tenant ledger; ``name -> LedgerVerification``."""
        return {
            tenant.name: tenant.verify(tol=tol, strict=strict)
            for tenant in self.registry
        }

    def state_dict(self) -> dict:
        """Full durable state (registry + queue + transition counter)."""
        return {
            "seq": int(self.seq),
            "registry": self.registry.state_dict(),
            "queue": self.queue.state_dict(),
            "ops_ledger": self.ops_ledger.state_dict(),
        }

    def _load_state(self, state: dict) -> None:
        self.seq = int(state["seq"])
        self.registry.load_state_dict(state["registry"])
        self.queue.load_state_dict(state["queue"])
        if "ops_ledger" in state:  # absent in pre-observability snapshots
            self.ops_ledger.load_state_dict(state["ops_ledger"])
        # Jobs that were mid-flight when the process died re-run from the
        # queue (their ε is already committed — never spent twice).
        for record in self.queue.by_status("running"):
            record.status = "admitted"
            self.telemetry.increment("service_jobs_recovered")

    def _persist(self) -> None:
        """Advance the transition counter; snapshot when durable."""
        self.seq += 1
        if self.store is not None:
            self.store.save(self.state_dict(), seq=self.seq)
