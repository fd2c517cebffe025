"""ServingHealth: multiset audit, fault accounting, availability math."""

import json

import pytest

from repro.resilience.faults import account
from repro.serving.health import ServingEvent, ServingHealth


def record_full_life(health, rid, *, outcome="request.answered", rung=""):
    health.record("request.submitted", tick=0, request_id=rid)
    health.record("request.admitted", tick=0, request_id=rid)
    health.record(outcome, tick=1, request_id=rid, rung=rung)


class TestServingEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown serving event kind"):
            ServingEvent(kind="request.vanished")

    def test_degraded_requires_a_rung(self):
        with pytest.raises(ValueError, match="ladder rung"):
            ServingEvent(kind="request.degraded")
        ServingEvent(kind="request.degraded", rung="stale-cache")


class TestAudit:
    def test_clean_log_balances(self):
        health = ServingHealth()
        record_full_life(health, 0)
        record_full_life(health, 1, outcome="request.degraded", rung="popularity")
        health.record("request.submitted", tick=2, request_id=2)
        health.record("request.shed", tick=2, request_id=2, detail="queue-full")
        assert health.audit() == []

    def test_missing_terminal_is_a_violation(self):
        health = ServingHealth()
        health.record("request.submitted", tick=0, request_id=0)
        health.record("request.admitted", tick=0, request_id=0)
        assert any("0 terminal" in v for v in health.audit())

    def test_double_terminal_is_a_violation(self):
        health = ServingHealth()
        record_full_life(health, 0)
        health.record("request.answered", tick=2, request_id=0)
        assert any("2 terminal" in v for v in health.audit())

    def test_double_admission_is_a_violation(self):
        health = ServingHealth()
        record_full_life(health, 0)
        health.record("request.admitted", tick=1, request_id=0)
        assert any("admitted 2 times" in v for v in health.audit())

    def test_answer_without_admission_is_a_violation(self):
        health = ServingHealth()
        health.record("request.submitted", tick=0, request_id=0)
        health.record("request.answered", tick=1, request_id=0)
        assert any("without admission" in v for v in health.audit())

    def test_invalid_request_fault_skips_admission_legally(self):
        health = ServingHealth()
        health.record("request.submitted", tick=0, request_id=0)
        health.record(
            "request.faulted", tick=0, request_id=0, detail="invalid-request"
        )
        assert health.audit() == []

    def test_terminal_without_submission_is_a_violation(self):
        health = ServingHealth()
        health.record("request.shed", tick=0, request_id=7, detail="deadline")
        assert any("never submitted" in v for v in health.audit())

    def test_degraded_without_rung_caught_on_restored_logs(self):
        # record() enforces the rung, but from_dict must re-audit.
        health = ServingHealth.from_dict(
            {
                "events": [
                    {"kind": "request.submitted", "request_id": 0},
                    {"kind": "request.admitted", "request_id": 0},
                    {"kind": "request.degraded", "request_id": 0,
                     "rung": "stale-cache"},
                ]
            }
        )
        assert health.audit() == []


class TestAvailability:
    def test_vacuous_without_traffic(self):
        assert ServingHealth().availability() == pytest.approx(1.0)

    def test_served_over_admitted(self):
        health = ServingHealth()
        record_full_life(health, 0)
        record_full_life(health, 1, outcome="request.degraded", rung="popularity")
        record_full_life(health, 2, outcome="request.shed")
        record_full_life(health, 3, outcome="request.faulted")
        assert health.availability() == pytest.approx(0.5)


class TestFaultAccounting:
    def test_balanced(self):
        health = ServingHealth()
        health.record("fault.backend-stall", tick=3)
        health.record("fault.score-nan", tick=5)
        missing, extra = account(
            [("fault.backend-stall", 3), ("fault.score-nan", 5)],
            health.fault_events(),
        )
        assert missing == [] and extra == []

    def test_missing_and_extra(self):
        health = ServingHealth()
        health.record("fault.backend-stall", tick=3)
        health.record("fault.corrupt-model-file", tick=9)
        missing, extra = account(
            [("fault.backend-stall", 3), ("fault.score-nan", 5)],
            health.fault_events(),
        )
        assert missing == [("fault.score-nan", 5)]
        assert extra == [("fault.corrupt-model-file", 9)]


class TestSerialization:
    def test_json_roundtrip_preserves_audit(self):
        health = ServingHealth()
        record_full_life(health, 0)
        health.record("breaker.open", tick=4)
        restored = ServingHealth.from_dict(json.loads(health.to_json()))
        assert len(restored) == len(health)
        assert restored.audit() == health.audit() == []
        assert restored.counts() == health.counts()


class TestReadYourWrites:
    def ack(self, health, seq, user, tick):
        health.record("ingest.acked", tick=tick, request_id=seq, user=user)

    def applied(self, health, seq, tick):
        health.record("ingest.applied", tick=tick, request_id=seq)

    def scored(self, health, user, tick, kind="request.answered", rung=""):
        health.record(kind, tick=tick, request_id=900 + tick, user=user, rung=rung)

    def test_clean_ordering_balances(self):
        health = ServingHealth()
        self.ack(health, seq=0, user=3, tick=1)
        self.applied(health, seq=0, tick=2)
        self.scored(health, user=3, tick=4)
        assert health.read_your_writes_audit() == []

    def test_unapplied_ack_before_fresh_score_is_a_violation(self):
        health = ServingHealth()
        self.ack(health, seq=0, user=3, tick=1)
        self.scored(health, user=3, tick=4)
        self.applied(health, seq=0, tick=6)  # too late
        violations = health.read_your_writes_audit()
        assert any("unapplied" in v for v in violations)

    def test_other_users_writes_do_not_block(self):
        health = ServingHealth()
        self.ack(health, seq=0, user=1, tick=1)
        self.scored(health, user=2, tick=3)  # different user
        self.applied(health, seq=0, tick=5)
        assert health.read_your_writes_audit() == []

    def test_stale_rungs_are_exempt(self):
        # stale-cache and popularity advertise staleness by name; only
        # freshly scored terminals carry the read-your-writes promise.
        health = ServingHealth()
        self.ack(health, seq=0, user=3, tick=1)
        self.scored(
            health, user=3, tick=3, kind="request.degraded", rung="stale-cache"
        )
        self.applied(health, seq=0, tick=5)
        assert health.read_your_writes_audit() == []

    def test_brute_force_rung_is_fresh(self):
        health = ServingHealth()
        self.ack(health, seq=0, user=3, tick=1)
        self.scored(
            health, user=3, tick=3, kind="request.degraded", rung="brute-force"
        )
        self.applied(health, seq=0, tick=5)
        violations = health.read_your_writes_audit()
        assert any("unapplied" in v for v in violations)

    def test_ack_without_apply_is_a_violation(self):
        health = ServingHealth()
        self.ack(health, seq=0, user=1, tick=1)
        violations = health.read_your_writes_audit()
        assert any("applied 0 times" in v for v in violations)

    def test_apply_without_ack_is_a_violation(self):
        health = ServingHealth()
        self.applied(health, seq=7, tick=2)
        violations = health.read_your_writes_audit()
        assert any("never acked" in v for v in violations)

    def test_double_ack_and_double_apply_are_violations(self):
        health = ServingHealth()
        self.ack(health, seq=0, user=1, tick=1)
        self.ack(health, seq=0, user=1, tick=2)
        self.applied(health, seq=0, tick=3)
        self.applied(health, seq=0, tick=4)
        violations = health.read_your_writes_audit()
        assert any("acked twice" in v for v in violations)
        assert any("applied 2 times" in v for v in violations)

    def test_apply_before_ack_tick_is_a_violation(self):
        health = ServingHealth()
        self.applied(health, seq=0, tick=1)
        self.ack(health, seq=0, user=1, tick=3)
        violations = health.read_your_writes_audit()
        assert any("before its ack" in v for v in violations)

    def test_same_tick_apply_satisfies_the_promise(self):
        # Publishing at the top of the serving tick is the drill's
        # pattern: apply and score on the same tick is legal.
        health = ServingHealth()
        self.ack(health, seq=0, user=3, tick=1)
        self.applied(health, seq=0, tick=4)
        self.scored(health, user=3, tick=4)
        assert health.read_your_writes_audit() == []
