"""The :class:`RunHealth` log: every fault, repair and retry, accounted.

A supervised run is only trustworthy if its recoveries are *visible*:
silently retrying a killed worker or silently re-solving a NaN lane turns
a chaos experiment into wishful thinking.  ``RunHealth`` is therefore an
append-only event log with plain-data events (JSON-ready, picklable), a
per-kind counter view, and the fault events that
:func:`~repro.resilience.faults.account` diffs against the faults a
:class:`~repro.resilience.faults.FaultPlan` is known to have injected —
the VF108 check and the ``repro chaos`` CLI both gate on "every injected
fault is accounted for".

Event kinds used by the runtime and models:

==========================  ============================================
``fault.worker-kill``       an injected (or observed) worker death
``fault.delay``             an injected shard delay
``fault.nan-flip``          a CG batch lane flipped to NaN
``fault.fp16-overflow``     a CG batch lane forced to ±inf (overflow)
``guard.input-nonfinite``   non-finite normal equations detected
``guard.quarantine``        lanes quarantined for re-solve
``guard.repair-fp32``       lanes repaired by FP16→FP32 escalation
``guard.repair-lu``         lanes repaired by the CG→LU fallback
``guard.unrepairable``      lanes that survived the whole ladder
``guard.divergence``        epoch objective diverged; ladder escalation
``supervise.retry``         a shard retried after a fault
``supervise.deadline``      a shard exceeded its deadline
``supervise.respawn``       the worker pool was rebuilt after a fault
``supervise.degrade-serial``pool execution demoted to serial
``checkpoint.saved``        an epoch checkpoint was written
``checkpoint.resumed``      training resumed from a checkpoint
==========================  ============================================
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field

__all__ = ["HealthEvent", "RunHealth", "FAULT_KINDS"]

#: Event kinds that correspond to *injected* faults (the accounting set).
FAULT_KINDS = (
    "fault.worker-kill",
    "fault.delay",
    "fault.nan-flip",
    "fault.fp16-overflow",
)


@dataclass(frozen=True)
class HealthEvent:
    """One entry of the health log (plain data: JSON-ready, picklable)."""

    kind: str
    step: int = -1  # half-step index (-1: not tied to a half-step)
    shard: int = -1  # shard index within the half-step (-1: run-level)
    attempt: int = 0  # retry attempt the event occurred on
    lanes: tuple[int, ...] = ()  # affected global row indices, if any
    detail: str = ""  # human-readable context

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("kind must be non-empty")
        if self.attempt < 0:
            raise ValueError("attempt must be non-negative")

    @property
    def site(self) -> tuple[int, int]:
        """Where the event fired: the key :func:`~repro.resilience.faults.account` uses."""
        return (self.step, self.shard)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["lanes"] = list(self.lanes)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "HealthEvent":
        return cls(
            kind=data["kind"],
            step=int(data.get("step", -1)),
            shard=int(data.get("shard", -1)),
            attempt=int(data.get("attempt", 0)),
            lanes=tuple(int(x) for x in data.get("lanes", ())),
            detail=str(data.get("detail", "")),
        )


@dataclass
class RunHealth:
    """Append-only health log for one training run."""

    events: list[HealthEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        *,
        step: int = -1,
        shard: int = -1,
        attempt: int = 0,
        lanes: tuple[int, ...] = (),
        detail: str = "",
    ) -> HealthEvent:
        event = HealthEvent(
            kind=kind, step=step, shard=shard, attempt=attempt,
            lanes=lanes, detail=detail,
        )
        self.events.append(event)
        return event

    def extend(self, events) -> None:
        """Merge events produced elsewhere (e.g. returned by a worker)."""
        for event in events:
            if isinstance(event, HealthEvent):
                self.events.append(event)
            else:
                self.events.append(HealthEvent.from_dict(event))

    # -- queries ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return dict(Counter(e.kind for e in self.events))

    def fault_events(self) -> list[HealthEvent]:
        return [e for e in self.events if e.kind in FAULT_KINDS]

    @property
    def faults_injected(self) -> int:
        return len(self.fault_events())

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "events": [e.as_dict() for e in self.events],
            "counts": self.counts(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunHealth":
        health = cls()
        health.extend(data.get("events", []))
        return health

    def __len__(self) -> int:
        return len(self.events)
