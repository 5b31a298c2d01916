"""Release-ledger tests: hash-chain integrity, tamper evidence, replay
verification against a fresh accountant, and checkpoint survival."""

import dataclasses

import pytest

from repro.privacy import (
    GENESIS_HASH,
    LedgerError,
    PldAccountant,
    RdpAccountant,
    ReleaseLedger,
    ReleaseRecord,
    verify_ledger,
)


def _filled_ledger(n: int = 5, accountant: RdpAccountant | None = None) -> ReleaseLedger:
    ledger = ReleaseLedger()
    for _ in range(n):
        if accountant is not None:
            accountant.step(1.2, 0.05)
        ledger.record_release(
            mechanism="gaussian",
            sigma=1.2,
            sensitivity=0.1,
            sample_rate=0.05,
            accountant=accountant,
        )
    return ledger


class TestChain:
    def test_empty_ledger_head_is_genesis(self):
        ledger = ReleaseLedger()
        assert ledger.head == GENESIS_HASH
        ledger.verify_chain()  # vacuously intact

    def test_records_chain_to_predecessor(self):
        ledger = _filled_ledger(3)
        assert ledger.entries[0].prev_hash == GENESIS_HASH
        assert ledger.entries[1].prev_hash == ledger.entries[0].entry_hash
        assert ledger.entries[2].prev_hash == ledger.entries[1].entry_hash
        assert ledger.head == ledger.entries[2].entry_hash
        ledger.verify_chain()

    def test_hash_covers_every_payload_field(self):
        ledger = _filled_ledger(1)
        record = ledger.entries[0]
        for change in (
            {"sigma": 9.9},
            {"sensitivity": 9.9},
            {"sample_rate": 0.9},
            {"num_steps": 7},
            {"mechanism": "laplace"},
            {"meta": {"beta": 0.5}},
        ):
            tampered = dataclasses.replace(record, **change)
            assert tampered.compute_hash() != record.entry_hash

    def test_edit_breaks_chain(self):
        ledger = _filled_ledger(4)
        ledger.entries[1] = dataclasses.replace(ledger.entries[1], sigma=99.0)
        with pytest.raises(LedgerError, match="hash mismatch"):
            ledger.verify_chain()

    def test_deletion_breaks_chain(self):
        ledger = _filled_ledger(4)
        del ledger.entries[1]
        with pytest.raises(LedgerError):
            ledger.verify_chain()

    def test_reorder_breaks_chain(self):
        ledger = _filled_ledger(4)
        ledger.entries[1], ledger.entries[2] = ledger.entries[2], ledger.entries[1]
        with pytest.raises(LedgerError):
            ledger.verify_chain()

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="delta"):
            ReleaseLedger(delta=0.0)


class TestReplayVerification:
    def test_verify_matches_fresh_accountant_to_1e9(self):
        accountant = RdpAccountant()
        ledger = _filled_ledger(25, accountant)
        verification = verify_ledger(ledger, accountant, tol=1e-9)
        assert verification.ok
        assert verification.num_entries == 25
        assert verification.replayed_epsilon == pytest.approx(
            accountant.get_epsilon(1e-5), abs=1e-9
        )
        assert verification.recorded_epsilon == ledger.entries[-1].epsilon

    def test_epsilon_trajectory_is_monotone(self):
        accountant = RdpAccountant()
        ledger = _filled_ledger(10, accountant)
        trajectory = ledger.epsilon_trajectory()
        assert [steps for steps, _ in trajectory] == list(range(1, 11))
        eps = [e for _, e in trajectory]
        assert eps == sorted(eps)

    def test_tampered_epsilon_fails_replay(self):
        accountant = RdpAccountant()
        ledger = _filled_ledger(3, accountant)
        bad = dataclasses.replace(ledger.entries[-1], epsilon=0.123)
        bad = dataclasses.replace(bad, entry_hash=bad.compute_hash())
        # Re-chain so only the replay check (not the hash chain) can catch it.
        ledger.entries[-1] = bad
        with pytest.raises(LedgerError, match="replay"):
            verify_ledger(ledger, tol=1e-9)
        verification = verify_ledger(ledger, strict=False)
        assert not verification.ok and "replay" in verification.error

    def test_missing_releases_fail_live_accountant_check(self):
        accountant = RdpAccountant()
        ledger = _filled_ledger(3, accountant)
        accountant.step(1.2, 0.05)  # a release the ledger never saw
        with pytest.raises(LedgerError, match="live accountant"):
            verify_ledger(ledger, accountant)

    def test_broken_chain_reported_not_raised_when_lenient(self):
        ledger = _filled_ledger(3)
        ledger.entries[0] = dataclasses.replace(ledger.entries[0], sigma=5.0)
        verification = verify_ledger(ledger, strict=False)
        assert not verification.ok
        assert "FAILED" in str(verification)

    def test_zero_sigma_release_replays_like_the_optimizers(self):
        # The optimizers account sigma=0 as max(sigma, 1e-12); the replay
        # must mirror that or a noise-free ablation would never verify.
        accountant = RdpAccountant()
        ledger = ReleaseLedger()
        accountant.step(1e-12, 0.05)
        ledger.record_release(
            mechanism="gaussian", sigma=0.0, sensitivity=0.1,
            sample_rate=0.05, accountant=accountant,
        )
        assert verify_ledger(ledger, accountant).ok

    def test_unchargeable_entry_is_a_failed_verdict(self):
        """A ledger read from a file is outside input: an entry no
        accountant can charge fails the audit instead of crashing it."""
        ledger = _filled_ledger(2)
        ledger.record_release(
            mechanism="gaussian", sigma=1.2, sensitivity=0.1, sample_rate=1.5
        )
        verification = verify_ledger(ledger, strict=False)
        assert not verification.ok
        assert "entry 2" in verification.error and "sample_rate" in verification.error
        with pytest.raises(LedgerError, match="entry 2"):
            verify_ledger(ledger)

    def test_negative_step_count_is_not_an_annotation(self):
        ledger = _filled_ledger(2)
        bad = dataclasses.replace(ledger.entries[-1], num_steps=-3)
        ledger.entries[-1] = dataclasses.replace(bad, entry_hash=bad.compute_hash())
        verification = verify_ledger(ledger, strict=False)
        assert not verification.ok and "entry 1" in verification.error

    def test_empty_ledger_verifies(self):
        verification = verify_ledger(ReleaseLedger())
        assert verification.ok and verification.replayed_epsilon is None

    @pytest.mark.parametrize("sigma,sample_rate,steps", [(1.0, 1 / 32, 20), (2.0, 0.05, 50)])
    def test_pld_epsilon_at_most_replayed_rdp_epsilon(self, sigma, sample_rate, steps):
        """RDP composition is an upper bound and the PLD is near-exact, so
        on a homogeneous Gaussian ledger a PLD epsilon above the replayed
        one means the memoized RDP curve under-reports the guarantee."""
        accountant, ledger = RdpAccountant(), ReleaseLedger()
        for _ in range(steps):
            accountant.step(sigma, sample_rate)
            ledger.record_release(
                mechanism="gaussian", sigma=sigma, sensitivity=0.1,
                sample_rate=sample_rate, accountant=accountant,
            )
        pld = PldAccountant(sigma, sample_rate)
        pld.step(steps)
        replayed = verify_ledger(ledger, accountant).replayed_epsilon
        assert pld.get_epsilon(ledger.delta) <= replayed + 1e-3


class TestSerialisation:
    def test_state_round_trip_preserves_chain(self):
        accountant = RdpAccountant()
        ledger = _filled_ledger(6, accountant)
        clone = ReleaseLedger()
        clone.load_state_dict(ledger.state_dict())
        assert clone.head == ledger.head
        assert clone.delta == ledger.delta
        assert [r.to_dict() for r in clone.entries] == [
            r.to_dict() for r in ledger.entries
        ]
        assert verify_ledger(clone, accountant).ok

    def test_load_rejects_tampered_state(self):
        ledger = _filled_ledger(3)
        state = ledger.state_dict()
        state["entries"][1]["sigma"] = 42.0
        with pytest.raises(LedgerError):
            ReleaseLedger().load_state_dict(state)

    def test_record_round_trip(self):
        record = _filled_ledger(1).entries[0]
        assert ReleaseRecord.from_dict(record.to_dict()) == record


class TestNamespace:
    def test_default_namespace_absent_from_hashed_payload(self):
        # Back-compat: pre-namespace ledgers must keep their exact hashes,
        # so the empty default may not appear in the hashed payload at all.
        record = _filled_ledger(1).entries[0]
        assert record.namespace == ""
        assert "namespace" not in record.payload()
        assert "namespace" not in record.to_dict()

    def test_pre_namespace_state_still_verifies(self):
        ledger = _filled_ledger(3)
        state = ledger.state_dict()
        assert "namespace" not in state
        clone = ReleaseLedger()
        clone.load_state_dict(state)  # re-verifies the chain on load
        assert clone.namespace == ""
        assert clone.head == ledger.head

    def test_namespace_is_hashed_when_set(self):
        ledger = ReleaseLedger(namespace="alice")
        record = ledger.record_release(
            mechanism="gaussian", sigma=1.0, sensitivity=1.0, sample_rate=0.01
        )
        assert record.namespace == "alice"
        assert record.payload()["namespace"] == "alice"
        stripped = dataclasses.replace(record, namespace="")
        assert stripped.compute_hash() != record.entry_hash

    def test_per_record_namespace_override(self):
        ledger = ReleaseLedger(namespace="alice")
        record = ledger.record_release(
            mechanism="gaussian", sigma=1.0, sensitivity=1.0,
            sample_rate=0.01, namespace="bob",
        )
        assert record.namespace == "bob"
        ledger.verify_chain()

    def test_state_round_trip_preserves_namespace(self):
        ledger = ReleaseLedger(namespace="alice")
        ledger.record_release(
            mechanism="gaussian", sigma=1.0, sensitivity=1.0, sample_rate=0.01
        )
        state = ledger.state_dict()
        assert state["namespace"] == "alice"
        clone = ReleaseLedger()
        clone.load_state_dict(state)
        assert clone.namespace == "alice"
        assert clone.entries[0].namespace == "alice"
        assert clone.head == ledger.head


class TestAnnotations:
    def test_annotation_spends_nothing(self):
        accountant = RdpAccountant()
        ledger = ReleaseLedger()
        accountant.step(1.2, 0.05)
        ledger.record_release(
            mechanism="gaussian", sigma=1.2, sensitivity=0.1,
            sample_rate=0.05, accountant=accountant,
        )
        note = ledger.record_annotation(
            kind="refused", accountant=accountant, meta={"job_id": "j1"}
        )
        assert note.is_annotation and note.num_steps == 0
        assert note.mechanism == "annotation.refused"
        assert note.meta["job_id"] == "j1"
        # Replay skips the annotation: cumulative ε is the release's alone.
        verification = verify_ledger(ledger, accountant, tol=1e-9)
        assert verification.ok
        assert verification.replayed_epsilon == pytest.approx(
            accountant.get_epsilon(1e-5), abs=1e-9
        )

    def test_annotation_epsilon_is_still_audited(self):
        accountant = RdpAccountant()
        ledger = ReleaseLedger()
        accountant.step(1.2, 0.05)
        ledger.record_release(
            mechanism="gaussian", sigma=1.2, sensitivity=0.1,
            sample_rate=0.05, accountant=accountant,
        )
        ledger.record_annotation(kind="refused", accountant=accountant)
        bad = dataclasses.replace(ledger.entries[-1], epsilon=99.0)
        ledger.entries[-1] = dataclasses.replace(bad, entry_hash=bad.compute_hash())
        with pytest.raises(LedgerError, match="replay"):
            verify_ledger(ledger)

    def test_record_release_rejects_zero_steps(self):
        # num_steps == 0 is reserved for annotations.
        with pytest.raises(ValueError, match="num_steps"):
            ReleaseLedger().record_release(
                mechanism="gaussian", sigma=1.0, sensitivity=1.0,
                sample_rate=0.01, num_steps=0,
            )
