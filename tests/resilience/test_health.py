"""RunHealth: the audit log every supervised run must balance."""

import json

import pytest

from repro.resilience.faults import account
from repro.resilience.health import FAULT_KINDS, HealthEvent, RunHealth


class TestHealthEvent:
    def test_requires_kind(self):
        with pytest.raises(ValueError, match="kind"):
            HealthEvent(kind="")

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError, match="attempt"):
            HealthEvent(kind="x", attempt=-1)

    def test_dict_round_trip(self):
        event = HealthEvent(
            kind="guard.quarantine", step=2, shard=1, attempt=0,
            lanes=(5, 9), detail="2 lanes",
        )
        assert HealthEvent.from_dict(event.as_dict()) == event


class TestRunHealth:
    def test_record_and_counts(self):
        health = RunHealth()
        health.record("fault.delay", step=0, shard=1)
        health.record("fault.delay", step=1, shard=0)
        health.record("supervise.retry", step=1, shard=0)
        assert health.counts() == {"fault.delay": 2, "supervise.retry": 1}
        assert len(health) == 3

    def test_extend_accepts_dicts_and_events(self):
        health = RunHealth()
        health.extend([
            {"kind": "fault.nan-flip", "step": 0, "shard": 0, "lanes": [3]},
            HealthEvent(kind="guard.repair-fp32", step=0, shard=0),
        ])
        assert [e.kind for e in health.events] == [
            "fault.nan-flip", "guard.repair-fp32",
        ]
        assert health.events[0].lanes == (3,)

    def test_fault_events_filters_to_fault_kinds(self):
        health = RunHealth()
        for kind in FAULT_KINDS:
            health.record(kind, step=0, shard=0)
        health.record("supervise.retry", step=0, shard=0)
        health.record("checkpoint.saved")
        assert {e.kind for e in health.fault_events()} == set(FAULT_KINDS)
        assert health.faults_injected == len(FAULT_KINDS)

    def test_account_balanced(self):
        health = RunHealth()
        health.record("fault.delay", step=0, shard=1)
        health.record("fault.worker-kill", step=2, shard=0)
        expected = [("fault.delay", 0, 1), ("fault.worker-kill", 2, 0)]
        assert account(expected, health.fault_events()) == ([], [])

    def test_account_reports_missing_and_extra(self):
        health = RunHealth()
        health.record("fault.delay", step=0, shard=0)
        health.record("fault.nan-flip", step=1, shard=1)
        missing, extra = account(
            [("fault.delay", 0, 0), ("fault.delay", 3, 2)], health.fault_events()
        )
        assert missing == [("fault.delay", 3, 2)]
        assert extra == [("fault.nan-flip", 1, 1)]

    def test_account_counts_multiplicity(self):
        health = RunHealth()
        health.record("fault.delay", step=0, shard=0)
        missing, extra = account(
            [("fault.delay", 0, 0), ("fault.delay", 0, 0)], health.fault_events()
        )
        assert missing == [("fault.delay", 0, 0)]
        assert extra == []

    def test_json_round_trip(self):
        health = RunHealth()
        health.record("guard.quarantine", step=1, shard=2, lanes=(4,), detail="x")
        data = json.loads(health.to_json())
        back = RunHealth.from_dict(data)
        assert back.events == health.events
