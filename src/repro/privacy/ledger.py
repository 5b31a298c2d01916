"""Append-only, hash-chained ledger of DP noise releases.

Privacy accounting in the optimizers lives in mutable accountant state — a
cumulative RDP curve.  That state answers "what is ε now?" but not "what
sequence of releases produced it?", and it cannot be audited after the
fact.  The :class:`ReleaseLedger` turns each noise release into a durable
record — mechanism, σ, sensitivity, sample rate, step count, and the
cumulative ε *at the moment of release* as reported by the live
:class:`~repro.privacy.accountant.RdpAccountant` — chained together with
SHA-256 hashes so any tampering (edit, deletion, reordering) breaks the
chain.

:func:`verify_ledger` closes the loop: it replays the recorded releases
through a *fresh* accountant and checks that the recomputed ε matches both
the ledger's own recorded trajectory and the trainer's live accountant to
within ``1e-9`` — privacy accounting becomes an auditable artifact instead
of trusted state.

The ledger is persisted through :mod:`repro.checkpoint` snapshots (the
optimizers include it in their ``state_dict``) and survives resume with the
hash chain intact, and it exports through
:func:`repro.telemetry.export_trace` for offline verification by the
``repro report`` CLI subcommand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.privacy.accountant import RdpAccountant
from repro.privacy.rdp import DEFAULT_ALPHAS

__all__ = [
    "GENESIS_HASH",
    "LedgerError",
    "LedgerVerification",
    "ReleaseLedger",
    "ReleaseRecord",
    "charge_entry",
    "verify_ledger",
]

#: ``prev_hash`` of the first entry (no predecessor).
GENESIS_HASH = "0" * 64


class LedgerError(ValueError):
    """A ledger failed an integrity or replay check."""


def _canonical(payload: dict) -> str:
    """Deterministic JSON serialisation used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ReleaseRecord:
    """One noise release, hash-chained to its predecessor.

    ``epsilon`` is the cumulative privacy loss reported by the live
    accountant immediately after this release (``None`` when the release
    was recorded without an accountant attached).  ``entry_hash`` is
    ``sha256(prev_hash + canonical-json(payload))`` where the payload is
    every field except the hashes themselves.

    ``namespace`` tags the record with the tenant (or other logical owner)
    it belongs to, so one process can interleave several tenants in one
    chain without ambiguity.  The empty default is *omitted* from the
    hashed payload, which keeps every pre-namespace ledger verifying
    byte-for-byte.

    A record with ``num_steps == 0`` is a non-spending **annotation** — an
    auditable chain entry (e.g. a refused admission) that consumes no
    privacy budget and is skipped by replay verification.
    """

    index: int
    mechanism: str
    sigma: float
    sensitivity: float
    sample_rate: float
    num_steps: int
    epsilon: float | None
    prev_hash: str
    entry_hash: str
    meta: dict = field(default_factory=dict)
    namespace: str = ""

    @property
    def is_annotation(self) -> bool:
        """Whether this entry spends no budget (``num_steps == 0``)."""
        return self.num_steps == 0

    def payload(self) -> dict:
        """The hashed portion of the record."""
        payload = {
            "index": int(self.index),
            "mechanism": self.mechanism,
            "sigma": float(self.sigma),
            "sensitivity": float(self.sensitivity),
            "sample_rate": float(self.sample_rate),
            "num_steps": int(self.num_steps),
            "epsilon": None if self.epsilon is None else float(self.epsilon),
            "meta": dict(self.meta),
        }
        if self.namespace:
            payload["namespace"] = str(self.namespace)
        return payload

    def compute_hash(self) -> str:
        """Recompute this record's hash from its predecessor link + payload."""
        digest = hashlib.sha256()
        digest.update(self.prev_hash.encode("ascii"))
        digest.update(_canonical(self.payload()).encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> dict:
        """Plain-dict form for export / checkpointing."""
        return {**self.payload(), "prev_hash": self.prev_hash, "entry_hash": self.entry_hash}

    @classmethod
    def from_dict(cls, payload: dict) -> "ReleaseRecord":
        """Inverse of :meth:`to_dict`."""
        epsilon = payload.get("epsilon")
        return cls(
            index=int(payload["index"]),
            mechanism=str(payload["mechanism"]),
            sigma=float(payload["sigma"]),
            sensitivity=float(payload["sensitivity"]),
            sample_rate=float(payload["sample_rate"]),
            num_steps=int(payload["num_steps"]),
            epsilon=None if epsilon is None else float(epsilon),
            prev_hash=str(payload["prev_hash"]),
            entry_hash=str(payload["entry_hash"]),
            meta=dict(payload.get("meta", {})),
            namespace=str(payload.get("namespace", "")),
        )


class ReleaseLedger:
    """Tamper-evident, append-only record of every DP noise release.

    ``delta`` fixes the failure probability at which per-release ε values
    are evaluated; it must match the δ the run is finally reported at for
    the recorded trajectory to be the run's ε curve.

    ``namespace`` is the default tenant tag applied to every record this
    ledger appends (overridable per record); the empty default preserves
    the historical hashing exactly.
    """

    def __init__(self, *, delta: float = 1e-5, namespace: str = ""):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self.delta = float(delta)
        self.namespace = str(namespace)
        self.entries: list[ReleaseRecord] = []

    @property
    def head(self) -> str:
        """Hash of the newest entry (genesis hash when empty)."""
        return self.entries[-1].entry_hash if self.entries else GENESIS_HASH

    def record_release(
        self,
        *,
        mechanism: str,
        sigma: float,
        sensitivity: float,
        sample_rate: float,
        num_steps: int = 1,
        accountant: RdpAccountant | None = None,
        meta: dict | None = None,
        namespace: str | None = None,
    ) -> ReleaseRecord:
        """Append one release; called by the optimizers after accounting.

        ``accountant`` (the live one, already stepped for this release)
        supplies ε-at-release via ``get_epsilon(self.delta)``.  Returns the
        chained record.  ``namespace`` defaults to the ledger's own.
        """
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        return self._append(
            mechanism=str(mechanism),
            sigma=float(sigma),
            sensitivity=float(sensitivity),
            sample_rate=float(sample_rate),
            num_steps=int(num_steps),
            accountant=accountant,
            meta=meta,
            namespace=namespace,
        )

    def record_annotation(
        self,
        *,
        kind: str,
        accountant: RdpAccountant | None = None,
        meta: dict | None = None,
        namespace: str | None = None,
    ) -> ReleaseRecord:
        """Append an auditable, **non-spending** chain entry.

        Annotations (``num_steps == 0``, mechanism ``annotation.<kind>``)
        record decisions that must be tamper-evident without representing
        a noise release — e.g. a refused admission.  Replay verification
        skips them when recomposing ε, but still checks that the ε they
        recorded matches the cumulative ε at that point in the chain.
        """
        return self._append(
            mechanism=f"annotation.{kind}",
            sigma=0.0,
            sensitivity=0.0,
            sample_rate=0.0,
            num_steps=0,
            accountant=accountant,
            meta=meta,
            namespace=namespace,
        )

    def _append(
        self,
        *,
        mechanism: str,
        sigma: float,
        sensitivity: float,
        sample_rate: float,
        num_steps: int,
        accountant: RdpAccountant | None,
        meta: dict | None,
        namespace: str | None,
    ) -> ReleaseRecord:
        epsilon = None if accountant is None else float(accountant.get_epsilon(self.delta))
        record = ReleaseRecord(
            index=len(self.entries),
            mechanism=mechanism,
            sigma=sigma,
            sensitivity=sensitivity,
            sample_rate=sample_rate,
            num_steps=num_steps,
            epsilon=epsilon,
            prev_hash=self.head,
            entry_hash="",
            meta=dict(meta or {}),
            namespace=self.namespace if namespace is None else str(namespace),
        )
        record = replace(record, entry_hash=record.compute_hash())
        self.entries.append(record)
        return record

    def verify_chain(self) -> None:
        """Raise :class:`LedgerError` unless the hash chain is intact."""
        prev = GENESIS_HASH
        for position, record in enumerate(self.entries):
            if record.index != position:
                raise LedgerError(
                    f"entry at position {position} carries index {record.index}"
                )
            if record.prev_hash != prev:
                raise LedgerError(
                    f"entry {position} links to {record.prev_hash[:12]}..., "
                    f"expected {prev[:12]}..."
                )
            expected = record.compute_hash()
            if record.entry_hash != expected:
                raise LedgerError(
                    f"entry {position} hash mismatch: recorded "
                    f"{record.entry_hash[:12]}..., recomputed {expected[:12]}..."
                )
            prev = record.entry_hash

    def epsilon_trajectory(self) -> list[tuple[int, float]]:
        """``(cumulative steps, ε-at-release)`` points for recorded entries.

        Entries recorded without an accountant (ε unknown) are skipped.
        """
        points: list[tuple[int, float]] = []
        steps = 0
        for record in self.entries:
            steps += record.num_steps
            if record.epsilon is not None:
                points.append((steps, record.epsilon))
        return points

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"ReleaseLedger(entries={len(self.entries)}, delta={self.delta}, "
            f"head={self.head[:12]}...)"
        )

    # --------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Full ledger contents for checkpointing / export."""
        state = {
            "delta": self.delta,
            "entries": [record.to_dict() for record in self.entries],
        }
        if self.namespace:
            state["namespace"] = self.namespace
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a captured ledger and re-verify its hash chain."""
        self.delta = float(state["delta"])
        self.namespace = str(state.get("namespace", ""))
        self.entries = [ReleaseRecord.from_dict(p) for p in state["entries"]]
        self.verify_chain()


@dataclass(frozen=True)
class LedgerVerification:
    """Outcome of :func:`verify_ledger`."""

    ok: bool
    num_entries: int
    #: ε recorded at the newest release (``None`` if no entry carried one).
    recorded_epsilon: float | None
    #: ε recomputed by replaying the ledger through a fresh accountant.
    replayed_epsilon: float | None
    #: ε reported by the live accountant, when one was passed in.
    accountant_epsilon: float | None
    error: str | None = None

    def __str__(self) -> str:
        if self.ok:
            eps = "n/a" if self.replayed_epsilon is None else f"{self.replayed_epsilon:.6g}"
            return f"ledger verified: {self.num_entries} releases, epsilon={eps}"
        return f"ledger verification FAILED: {self.error}"


def charge_entry(accountant: RdpAccountant, record: ReleaseRecord) -> None:
    """Step ``accountant`` for one ledger entry: the one replay rule.

    Annotations (``num_steps == 0``) spend nothing.  Every other entry is
    charged as a subsampled Gaussian at ``max(σ, 1e-12)``, mirroring how
    the optimizers account a zero-noise ablation.  An entry the accountant
    cannot charge (e.g. a sample rate outside (0, 1], or a negative step
    count) raises :class:`ValueError`.
    """
    if not record.is_annotation:
        accountant.step(
            max(record.sigma, 1e-12), record.sample_rate, num_steps=record.num_steps
        )


def verify_ledger(
    ledger: ReleaseLedger,
    accountant: RdpAccountant | None = None,
    *,
    tol: float = 1e-9,
    strict: bool = True,
) -> LedgerVerification:
    """Audit a release ledger by replay.

    Checks three things: (1) the hash chain is intact; (2) replaying the
    recorded releases through a *fresh* :class:`RdpAccountant` reproduces
    the newest recorded ε-at-release to within ``tol``; (3) when the live
    ``accountant`` is given, its current ε also matches the replay to
    within ``tol`` — i.e. the ledger accounts for everything the accountant
    has seen.  Each entry is charged by :func:`charge_entry`; an entry it
    cannot charge fails the check.  Non-spending annotation entries
    contribute nothing to the replayed composition, but any ε they
    recorded must still equal the cumulative ε at their position in the
    chain.

    With ``strict=True`` (default) a failed check raises
    :class:`LedgerError`; otherwise the failure is reported in the returned
    :class:`LedgerVerification`.
    """

    def outcome(ok, replayed, recorded, live, error=None):
        result = LedgerVerification(
            ok=ok,
            num_entries=len(ledger.entries),
            recorded_epsilon=recorded,
            replayed_epsilon=replayed,
            accountant_epsilon=live,
            error=error,
        )
        if strict and not ok:
            raise LedgerError(error)
        return result

    try:
        ledger.verify_chain()
    except LedgerError as exc:
        return outcome(False, None, None, None, error=str(exc))

    alphas = accountant.alphas if accountant is not None else DEFAULT_ALPHAS
    replay = RdpAccountant(alphas=alphas)
    recorded: float | None = None
    for record in ledger.entries:
        try:
            charge_entry(replay, record)
        except ValueError as exc:
            return outcome(
                False,
                None,
                recorded,
                None,
                error=f"entry {record.index}: cannot be charged: {exc}",
            )
        if record.epsilon is not None:
            recorded = record.epsilon
            replayed = replay.get_epsilon(ledger.delta)
            if abs(replayed - record.epsilon) > tol:
                return outcome(
                    False,
                    replayed,
                    record.epsilon,
                    None,
                    error=(
                        f"entry {record.index}: recorded epsilon "
                        f"{record.epsilon!r} but replay gives {replayed!r} "
                        f"(|diff| > {tol})"
                    ),
                )
    replayed = replay.get_epsilon(ledger.delta) if ledger.entries else None
    live: float | None = None
    if accountant is not None:
        live = accountant.get_epsilon(ledger.delta)
        reference = replayed if replayed is not None else 0.0
        if abs(live - reference) > tol:
            return outcome(
                False,
                replayed,
                recorded,
                live,
                error=(
                    f"live accountant reports epsilon {live!r} but ledger "
                    f"replay gives {reference!r} (|diff| > {tol})"
                ),
            )
    return outcome(True, replayed, recorded, live)
