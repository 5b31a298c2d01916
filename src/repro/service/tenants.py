"""Tenants: named (ε, δ) budgets with serialized, auditable accounting.

A :class:`Tenant` owns the three things the budget server must never let
diverge: an immutable :class:`TenantPolicy` (the budget), a live
:class:`~repro.privacy.accountant.RdpAccountant` (the spend), and a
hash-chained :class:`~repro.privacy.ledger.ReleaseLedger` namespaced to
the tenant (the audit trail).  The accountant is *derived state*: it is
never persisted, only rebuilt by replaying the ledger's spending entries
in order — the same float operations in the same order the live server
performed, so a restarted server reports bit-identical ε.

Every tenant carries its own lock; the admission controller holds it for
the whole check-then-commit sequence, which is what makes concurrent
submissions racing for the last slice of a budget race-free (see
:mod:`repro.service.admission`).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from repro.privacy.accountant import RdpAccountant
from repro.privacy.ledger import ReleaseLedger, charge_entry, verify_ledger

__all__ = ["TenantPolicy", "Tenant", "TenantRegistry", "replay_accountant"]

#: Admission behaviours when a job's projected ε exceeds the budget.
OVERSPEND_POLICIES = ("refuse", "queue")


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's privacy budget and admission behaviour."""

    #: Total ε the tenant may spend (at ``delta``) across all jobs.
    epsilon_budget: float
    #: Failure probability the budget is evaluated at.
    delta: float = 1e-5
    #: ``"refuse"`` rejects over-budget jobs outright; ``"queue"`` parks
    #: them as pending, re-checked whenever the budget changes.
    on_overspend: str = "refuse"

    def __post_init__(self):
        if self.epsilon_budget <= 0:
            raise ValueError(f"epsilon_budget must be > 0, got {self.epsilon_budget}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.on_overspend not in OVERSPEND_POLICIES:
            raise ValueError(
                f"on_overspend must be one of {OVERSPEND_POLICIES}, "
                f"got {self.on_overspend!r}"
            )


def replay_accountant(ledger: ReleaseLedger) -> RdpAccountant:
    """Fresh accountant advanced through the ledger's spending entries.

    Each entry is charged by :func:`~repro.privacy.ledger.charge_entry`,
    exactly as :func:`~repro.privacy.ledger.verify_ledger` replays it.
    Because the live server steps its accountant once per admitted job in
    chain order, the replayed curve is bit-identical to the one the server
    held before a restart.
    """
    accountant = RdpAccountant()
    for record in ledger.entries:
        charge_entry(accountant, record)
    return accountant


class Tenant:
    """Budget + accountant + ledger + admission lock for one tenant."""

    def __init__(self, name: str, policy: TenantPolicy):
        if not name:
            raise ValueError("tenant name must be non-empty")
        self.name = str(name)
        self.policy = policy
        self.ledger = ReleaseLedger(delta=policy.delta, namespace=self.name)
        self.accountant = RdpAccountant()
        #: Serializes check-then-commit admission for this tenant.
        self.lock = threading.RLock()
        #: Jobs dispatched so far (fair-share ordering key, persisted).
        self.dispatch_count = 0

    def spent_epsilon(self) -> float:
        """Cumulative ε committed so far (admitted jobs, at policy δ)."""
        return self.accountant.get_epsilon(self.policy.delta)

    def remaining_epsilon(self) -> float:
        """Budget headroom; never negative."""
        return max(0.0, self.policy.epsilon_budget - self.spent_epsilon())

    def verify(self, *, tol: float = 1e-9, strict: bool = True):
        """Replay-audit this tenant's ledger against its live accountant."""
        return verify_ledger(self.ledger, self.accountant, tol=tol, strict=strict)

    def state_dict(self) -> dict:
        """Persistent state: policy + ledger + dispatch counter.

        The accountant is deliberately absent — it is rebuilt by
        :func:`replay_accountant` on load, and :meth:`load_state_dict`
        asserts the replay matches the recorded trajectory.
        """
        return {
            "name": self.name,
            "policy": asdict(self.policy),
            "ledger": self.ledger.state_dict(),
            "dispatch_count": int(self.dispatch_count),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Tenant":
        """Inverse of :meth:`state_dict`; verifies the restored chain."""
        tenant = cls(state["name"], TenantPolicy(**state["policy"]))
        tenant.ledger.load_state_dict(state["ledger"])
        tenant.accountant = replay_accountant(tenant.ledger)
        tenant.dispatch_count = int(state.get("dispatch_count", 0))
        tenant.verify(strict=True)
        return tenant

    def __repr__(self) -> str:
        return (
            f"Tenant({self.name!r}, spent={self.spent_epsilon():.4g}/"
            f"{self.policy.epsilon_budget:.4g} at delta={self.policy.delta:.3g})"
        )


class TenantRegistry:
    """Thread-safe mapping of tenant name -> :class:`Tenant`."""

    def __init__(self):
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        *,
        epsilon_budget: float,
        delta: float = 1e-5,
        on_overspend: str = "refuse",
    ) -> Tenant:
        """Register a new tenant; rejects duplicates."""
        policy = TenantPolicy(
            epsilon_budget=float(epsilon_budget),
            delta=float(delta),
            on_overspend=on_overspend,
        )
        tenant = Tenant(name, policy)
        with self._lock:
            if tenant.name in self._tenants:
                raise ValueError(f"tenant {tenant.name!r} already registered")
            self._tenants[tenant.name] = tenant
        return tenant

    def set_budget(self, name: str, epsilon_budget: float) -> Tenant:
        """Replace a tenant's ε budget (e.g. a top-up unblocking queued jobs)."""
        tenant = self.get(name)
        with tenant.lock:
            tenant.policy = TenantPolicy(
                epsilon_budget=float(epsilon_budget),
                delta=tenant.policy.delta,
                on_overspend=tenant.policy.on_overspend,
            )
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                raise KeyError(f"unknown tenant {name!r}") from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def __iter__(self):
        with self._lock:
            tenants = list(self._tenants.values())
        return iter(sorted(tenants, key=lambda t: t.name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def state_dict(self) -> dict:
        """Persistent state of every tenant, keyed by name."""
        return {"tenants": {tenant.name: tenant.state_dict() for tenant in self}}

    def load_state_dict(self, state: dict) -> None:
        """Rebuild every tenant (ledger verify + accountant replay)."""
        with self._lock:
            self._tenants = {
                name: Tenant.from_state(tenant_state)
                for name, tenant_state in state["tenants"].items()
            }
