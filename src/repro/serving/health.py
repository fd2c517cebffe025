"""The :class:`ServingHealth` audit log: every request, accounted.

Serving availability is only trustworthy if the engine cannot lose a
request silently.  ``ServingHealth`` is the serving-side sibling of
:class:`repro.resilience.health.RunHealth`: an append-only event log
with plain-data events, a per-kind counter view, and a multiset
:meth:`audit` that enforces the accounting contract the ISSUE states —
**every admitted request is exactly one of answered / degraded / shed /
faulted**, every degraded response names its ladder rung, and every
fault a :class:`~repro.resilience.faults.FaultPlan` injected
appears in the log (:func:`~repro.resilience.faults.account`).

Event kinds used by the serving engine:

=============================  ==========================================
``request.submitted``          a request entered :meth:`submit`
``request.admitted``           the admission queue accepted it
``request.answered``           full MF top-k served (terminal)
``request.degraded``           served off-ladder; ``rung`` says how
``request.shed``               load-shed (queue full / deadline / invalid)
``request.faulted``            ladder exhausted; ``ServingFault`` raised
``request.rerouted``           dispatched worker died; served in-process
``index.built``                retrieval index fit at model install
``index.skipped``              index build skipped (budget below one pass)
``fault.backend-stall``        injected scoring-backend stall
``fault.reload-during-traffic``injected hot reload mid-stream
``fault.corrupt-model-file``   injected reload of a corrupt artifact
``fault.score-nan``            injected NaN in one scoring lane
``fault.fleet-worker-kill``    injected SIGKILL of one fleet worker
``fault.fleet-worker-reload``  injected single-worker rolling restart
``fault.fleet-heartbeat-stall``injected heartbeat-missing worker stall
``worker.spawned``             a fleet scoring worker process started
``worker.respawned``           a dead/stalled worker was replaced
``worker.died``                worker loss detected (pipe EOF / no result)
``worker.heartbeat-miss``      a live worker failed to answer a ping
``fleet.degrade-inline``       fleet latched to the in-process path
``breaker.open``               circuit breaker tripped open
``breaker.half-open``          cooldown elapsed; probe allowed
``breaker.closed``             probe succeeded; normal service resumed
``reload.swapped``             hot reload installed a new model
``reload.noop``                reload target was bit-identical; kept
``reload.rolled-back``         reload target rejected; old model kept
``reload.delta``               folded rows installed without full reload
``ingest.acked``               a WAL append went durable (``request_id``
                               carries the WAL sequence, ``user`` the rater)
``ingest.applied``             that sequence's fold-in reached the store
``ingest.compacted``           delta chain compacted to a full checkpoint
``wal.recovered``              WAL recovery truncated a torn tail
``fault.wal-torn-write``       injected torn WAL append
``fault.fold-in-nan``          injected NaN in one folded row
``fault.delta-apply-during-traffic`` injected mid-traffic delta apply
=============================  ==========================================

``request.rerouted`` is deliberately **not** terminal: it marks the
hand-off from a dead worker back to the in-process scorer, and the
re-routed request still gets exactly one terminal outcome afterwards —
:meth:`ServingHealth.audit` enforces both directions.

The ``ingest.*`` pair is what makes **read-your-writes** auditable
(:meth:`ServingHealth.read_your_writes_audit`): each acked ingest is a
promise that the user's next *freshly scored* terminal reflects the
write, and the log must show the matching ``ingest.applied`` landing in
between — multiset-accounted per WAL sequence, exactly like faults.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field

__all__ = [
    "DEGRADE_RUNGS",
    "SERVING_EVENT_KINDS",
    "ServingEvent",
    "ServingHealth",
    "TERMINAL_KINDS",
]

#: Terminal outcomes — each admitted request gets exactly one.
TERMINAL_KINDS = (
    "request.answered",
    "request.degraded",
    "request.shed",
    "request.faulted",
)

#: Valid ``rung`` attributions for a ``request.degraded`` event, in
#: ladder order.  ``brute-force`` is the rung above stale-cache: the
#: retrieval index is enabled but missing or stale (e.g. a budget-
#: skipped build after a swap), so the request was served by the exact
#: full GEMM instead of the probed path — fresh scores, higher cost.
#: It is distinct from ``request.answered`` (full top-k *as configured*)
#: so :meth:`ServingHealth.audit`'s partition never double-counts a
#: request when the index misses.
DEGRADE_RUNGS = ("brute-force", "stale-cache", "popularity")

SERVING_EVENT_KINDS = (
    "request.submitted",
    "request.admitted",
    *TERMINAL_KINDS,
    "fault.backend-stall",
    "fault.reload-during-traffic",
    "fault.corrupt-model-file",
    "fault.score-nan",
    "fault.fleet-worker-kill",
    "fault.fleet-worker-reload",
    "fault.fleet-heartbeat-stall",
    "request.rerouted",
    "worker.spawned",
    "worker.respawned",
    "worker.died",
    "worker.heartbeat-miss",
    "fleet.degrade-inline",
    "breaker.open",
    "breaker.half-open",
    "breaker.closed",
    "reload.swapped",
    "reload.noop",
    "reload.rolled-back",
    "reload.delta",
    "index.built",
    "index.skipped",
    "ingest.acked",
    "ingest.applied",
    "ingest.compacted",
    "wal.recovered",
    "fault.wal-torn-write",
    "fault.fold-in-nan",
    "fault.delta-apply-during-traffic",
)


@dataclass(frozen=True)
class ServingEvent:
    """One entry of the serving audit log (plain data: JSON-ready)."""

    kind: str
    tick: int = -1  # engine tick the event occurred on (-1: untimed)
    request_id: int = -1  # affected request, or WAL seq for ingest.* events
    rung: str = ""  # degradation-ladder attribution (degraded only)
    detail: str = ""  # human-readable context
    worker: int = -1  # fleet worker slot (-1: in-process / not a fleet run)
    user: int = -1  # user attribution (scored terminals, ingest.acked)

    def __post_init__(self) -> None:
        if self.kind not in SERVING_EVENT_KINDS:
            raise ValueError(f"unknown serving event kind {self.kind!r}")
        if self.kind == "request.degraded" and self.rung not in DEGRADE_RUNGS:
            raise ValueError(
                f"degraded event must name a ladder rung, got {self.rung!r}"
            )

    @property
    def site(self) -> tuple[int]:
        """Where the event fired: the key :func:`~repro.resilience.faults.account` uses."""
        return (self.tick,)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServingEvent":
        return cls(
            kind=data["kind"],
            tick=int(data.get("tick", -1)),
            request_id=int(data.get("request_id", -1)),
            rung=str(data.get("rung", "")),
            detail=str(data.get("detail", "")),
            worker=int(data.get("worker", -1)),
            user=int(data.get("user", -1)),
        )


@dataclass
class ServingHealth:
    """Append-only audit log for one serving engine's lifetime."""

    events: list[ServingEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        *,
        tick: int = -1,
        request_id: int = -1,
        rung: str = "",
        detail: str = "",
        worker: int = -1,
        user: int = -1,
    ) -> ServingEvent:
        event = ServingEvent(
            kind=kind,
            tick=tick,
            request_id=request_id,
            rung=rung,
            detail=detail,
            worker=worker,
            user=user,
        )
        self.events.append(event)
        return event

    # -- queries ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return dict(Counter(e.kind for e in self.events))

    def _ids_of(self, kind: str) -> Counter:
        return Counter(e.request_id for e in self.events if e.kind == kind)

    @property
    def submitted(self) -> int:
        return sum(1 for e in self.events if e.kind == "request.submitted")

    @property
    def admitted(self) -> int:
        return sum(1 for e in self.events if e.kind == "request.admitted")

    def availability(self) -> float:
        """(answered + degraded) / admitted; vacuously 1.0 with no traffic."""
        counts = self.counts()
        admitted = counts.get("request.admitted", 0)
        if admitted == 0:
            return 1.0
        served = counts.get("request.answered", 0) + counts.get(
            "request.degraded", 0
        )
        return served / admitted

    def fault_events(self) -> list[ServingEvent]:
        return [e for e in self.events if e.kind.startswith("fault.")]

    def audit(self) -> list[str]:
        """Multiset accounting check; returns human-readable violations.

        Empty list means the log balances:

        * every submitted request has **exactly one** terminal outcome;
        * answered/degraded/faulted requests were admitted first;
        * no request is admitted twice, or terminal without submission;
        * every degraded event names a ladder rung (enforced at record
          time too, but re-checked here for logs restored from JSON);
        * every ``request.rerouted`` names a request that was admitted —
          a fleet may only re-route work it had dispatched.
        """
        violations: list[str] = []
        submitted = self._ids_of("request.submitted")
        admitted = self._ids_of("request.admitted")
        terminals = Counter(
            e.request_id for e in self.events if e.kind in TERMINAL_KINDS
        )
        for rid, count in sorted(submitted.items()):
            if count > 1:
                violations.append(f"request {rid} submitted {count} times")
            if terminals.get(rid, 0) != 1:
                violations.append(
                    f"request {rid} has {terminals.get(rid, 0)} terminal "
                    "outcomes (want exactly 1)"
                )
        for rid, count in sorted(admitted.items()):
            if count > 1:
                violations.append(f"request {rid} admitted {count} times")
            if rid not in submitted:
                violations.append(f"request {rid} admitted but never submitted")
        for rid in sorted(terminals):
            if rid not in submitted:
                violations.append(f"request {rid} terminal but never submitted")
        for e in self.events:
            if e.kind in ("request.answered", "request.degraded", "request.faulted"):
                if admitted.get(e.request_id, 0) == 0 and e.detail != "invalid-request":
                    violations.append(
                        f"request {e.request_id} {e.kind.split('.')[1]} "
                        "without admission"
                    )
            if e.kind == "request.degraded" and e.rung not in DEGRADE_RUNGS:
                violations.append(
                    f"request {e.request_id} degraded without a ladder rung"
                )
            if e.kind == "request.rerouted" and admitted.get(e.request_id, 0) == 0:
                violations.append(
                    f"request {e.request_id} rerouted without admission"
                )
        return violations

    def read_your_writes_audit(self) -> list[str]:
        """Per-user read-your-writes ordering check; returns violations.

        The contract the streaming plane must uphold: once an ingest for
        user ``u`` is **acked** (``ingest.acked``, ``request_id`` = WAL
        sequence, ``user`` = u), the matching ``ingest.applied`` must land
        before u's next *freshly scored* terminal — a later request must
        see the write.  Freshly scored means ``request.answered`` or a
        ``request.degraded`` at the ``brute-force`` rung (both score
        against the live factors); the ``stale-cache``/``popularity``
        rungs advertise staleness by name and are exempt.

        Checks, multiset-accounted like everything else:

        * every acked WAL sequence has **exactly one** ``ingest.applied``;
        * no sequence is applied without (or before) its ack;
        * no user's freshly scored terminal at tick ``t`` has an ack from
          a strictly earlier tick still unapplied at ``t``.
        """
        violations: list[str] = []
        acked: dict[int, ServingEvent] = {}
        applied: Counter = Counter()
        applied_tick: dict[int, int] = {}
        for e in self.events:
            if e.kind == "ingest.acked":
                if e.request_id in acked:
                    violations.append(f"wal seq {e.request_id} acked twice")
                acked[e.request_id] = e
            elif e.kind == "ingest.applied":
                applied[e.request_id] += 1
                prev = applied_tick.get(e.request_id)
                applied_tick[e.request_id] = (
                    e.tick if prev is None else min(prev, e.tick)
                )
        for seq, ack in sorted(acked.items()):
            count = applied.get(seq, 0)
            if count != 1:
                violations.append(
                    f"wal seq {seq} acked but applied {count} times "
                    "(want exactly 1)"
                )
            if count and applied_tick[seq] < ack.tick:
                violations.append(
                    f"wal seq {seq} applied at tick {applied_tick[seq]} "
                    f"before its ack at tick {ack.tick}"
                )
        for seq in sorted(applied):
            if seq not in acked:
                violations.append(f"wal seq {seq} applied but never acked")
        for e in self.events:
            fresh = e.kind == "request.answered" or (
                e.kind == "request.degraded" and e.rung == "brute-force"
            )
            if not fresh or e.user < 0:
                continue
            for seq, ack in acked.items():
                if ack.user != e.user or not (0 <= ack.tick < e.tick):
                    continue
                landed = applied.get(seq, 0) and applied_tick[seq] <= e.tick
                if not landed:
                    violations.append(
                        f"user {e.user} scored at tick {e.tick} while wal "
                        f"seq {seq} (acked tick {ack.tick}) was unapplied"
                    )
        return violations

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "events": [e.as_dict() for e in self.events],
            "counts": self.counts(),
            "availability": self.availability(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ServingHealth":
        health = cls()
        for event in data.get("events", []):
            health.events.append(ServingEvent.from_dict(event))
        return health

    def __len__(self) -> int:
        return len(self.events)
