"""Seeded fault injection for training, serving and ingestion (chaos).

One :class:`FaultPlan` is a *pure function* from ``(kind, *site)`` to
"does this fault fire?": every decision is derived from the plan's seed
through an independent per-kind :class:`numpy.random.SeedSequence`, so
the same plan injects the same faults into the same places whether a
shard runs in-process, in a forked worker, or on a retry, and whichever
serving engine carries it.  That determinism is what makes chaos runs
*auditable*: the expected fault set can be enumerated up front
(:func:`expected_fault_events` per ``(step, shard)`` site,
:func:`expected_serving_faults` per engine tick) and diffed against a
health log afterwards (:func:`account`).  The registry ``_KINDS`` below
describes every kind.

Faults only fire on attempt 0 of a site: retries are clean, so a
supervised run always terminates.  A worker-kill pre-empts the site's
other faults (a dead worker injects nothing else), and empty shards
inject nothing (they execute no code).
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "FaultPlan",
    "INGEST_FAULT_KINDS",
    "InjectedWorkerKill",
    "NumericalFault",
    "SERVING_FAULT_KINDS",
    "SolverFaultHook",
    "account",
    "expected_fault_events",
    "expected_serving_faults",
    "inject_shard_start",
    "solver_fault_hook",
]


class InjectedWorkerKill(RuntimeError):
    """Serial-mode stand-in for a SIGKILLed worker process."""


class NumericalFault(RuntimeError):
    """A numeric failure the guard ladder could not repair.

    Defined here (dependency-free) rather than in
    :mod:`repro.resilience.guards` so the core trainers and the runtime
    executor can raise/catch it without importing the guard module,
    which sits downstream of :mod:`repro.core` in the import graph.
    Carries provenance: the pipeline ``stage`` that failed and the
    global row indices (``lanes``) of the affected systems.
    """

    def __init__(
        self, message: str, lanes: tuple[int, ...] = (), stage: str = ""
    ) -> None:
        super().__init__(message)
        self.lanes = tuple(int(x) for x in lanes)
        self.stage = stage

    def __reduce__(self):  # survive the pickling of pool-worker exceptions
        return (type(self), (self.args[0], self.lanes, self.stage))


#: The fault registry: kind → (stream, rate field, plane).  The stream
#: sub-seeds the kind's :class:`numpy.random.SeedSequence` and is part of
#: the on-disk chaos contract (``docs/resilience.md`` pins the table by
#: test); the rate field names the :class:`FaultPlan` field that sets
#: the kind's per-site firing rate.  Training kinds fire per
#: ``(step, shard)`` site, serving and ingest kinds per engine tick.
_KINDS = {
    # the shard's process dies mid-shard (SIGKILL forked, raised serially)
    "fault.worker-kill": (1, "kill_rate", "training"),
    # the shard sleeps ``delay_seconds`` before computing
    "fault.delay": (2, "delay_rate", "training"),
    # one lane of the CG solver's staged A batch is flipped to NaN
    "fault.nan-flip": (3, "nan_rate", "training"),
    # one staged A lane is forced to ±inf: FP16 storage of A_u without
    # the saturating conversion (paper Solution 4's overflow hazard)
    "fault.fp16-overflow": (4, "overflow_rate", "training"),
    # the scoring backend hangs past the request budget; the batch fails
    "fault.backend-stall": (101, "stall_rate", "serving"),
    # a hot reload of a valid artifact mid-traffic (no-op for scoring)
    "fault.reload-during-traffic": (102, "reload_rate", "serving"),
    # a hot reload of a corrupt artifact (must roll back)
    "fault.corrupt-model-file": (103, "corrupt_rate", "serving"),
    # one scored lane of the batch turns NaN after the GEMM
    "fault.score-nan": (104, "score_nan_rate", "serving"),
    # one fleet worker is SIGKILLed mid-batch; its requests re-route
    "fault.fleet-worker-kill": (105, "worker_kill_rate", "serving"),
    # one fleet worker is restarted during traffic (rolling reload)
    "fault.fleet-worker-reload": (106, "worker_reload_rate", "serving"),
    # one fleet worker misses its heartbeat and must be respawned
    "fault.fleet-heartbeat-stall": (107, "heartbeat_stall_rate", "serving"),
    # a WAL append is torn mid-record; recovery drops exactly that record
    "fault.wal-torn-write": (108, "wal_torn_rate", "ingest"),
    # one folded row turns NaN before install; ingest must re-solve it
    "fault.fold-in-nan": (109, "foldin_nan_rate", "ingest"),
    # a delta apply is forced onto the store mid-traffic
    "fault.delta-apply-during-traffic": (110, "delta_apply_rate", "ingest"),
}

#: Stream of the supervised executor's retry-backoff jitter
#: (:meth:`FaultPlan.backoff_jitter`), so chaos drills replay the same
#: sleep schedule without ever touching global RNG state.
_JITTER_STREAM = 5

#: Tick-indexed kinds, injected by the serving engines.  The fleet kinds
#: are recorded as no-op firings by the single-process engine and the
#: ingest kinds by engines without an ingest pipeline, so accounting
#: stays exact whichever engine carries the plan.
SERVING_FAULT_KINDS = tuple(k for k, v in _KINDS.items() if v[2] != "training")

#: The ingestion kinds, for drills that only run an ingest pipeline.
INGEST_FAULT_KINDS = tuple(k for k, v in _KINDS.items() if v[2] == "ingest")


@dataclass(frozen=True)
class FaultPlan:
    """Rates and seed of one injection campaign (plain data, JSON-ready).

    One plan drives all three planes: the training rates fire per
    ``(step, shard)`` site, the serving and ingest rates per engine tick.
    """

    seed: int = 0
    kill_rate: float = 0.0
    delay_rate: float = 0.0
    nan_rate: float = 0.0
    overflow_rate: float = 0.0
    delay_seconds: float = 0.01
    stall_rate: float = 0.0
    reload_rate: float = 0.0
    corrupt_rate: float = 0.0
    score_nan_rate: float = 0.0
    worker_kill_rate: float = 0.0
    worker_reload_rate: float = 0.0
    heartbeat_stall_rate: float = 0.0
    wal_torn_rate: float = 0.0
    foldin_nan_rate: float = 0.0
    delta_apply_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for _stream, name, _plane in _KINDS.values():
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")

    @property
    def rate_of(self) -> dict[str, float]:
        return {kind: getattr(self, v[1]) for kind, v in _KINDS.items()}

    def as_dict(self) -> dict:
        return asdict(self)

    # -- deterministic decisions -------------------------------------------

    def _rng(self, stream: int, site: tuple[int, ...]) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, stream, *site])
        )

    def fires(self, kind: str, *site: int, attempt: int = 0) -> bool:
        """Whether ``kind`` fires at ``site`` on ``attempt``.

        ``site`` is ``(step, shard)`` for training kinds and ``(tick,)``
        for serving and ingest kinds.  Only attempt 0 injects: the fault
        models are transient, so the supervisor's retry path always
        converges.
        """
        stream, field, _plane = _entry(kind)
        rate = getattr(self, field)
        if attempt != 0 or rate <= 0.0:
            return False
        return bool(self._rng(stream, site).random() < rate)

    def victim_lane(self, kind: str, *site: int, num_lanes: int) -> int:
        """Deterministic victim lane (row, slot or worker) at ``site``."""
        if num_lanes < 1:
            raise ValueError("num_lanes must be positive")
        # Independent draw after the fire decision so lane choice does not
        # perturb whether *other* sites fire.
        rng = self._rng(_entry(kind)[0], site)
        rng.random()  # consume the fire draw
        return int(rng.integers(0, num_lanes))

    def backoff_jitter(self, step: int, shard: int, attempt: int) -> float:
        """Deterministic retry-jitter fraction in ``[0, 1)`` for one site.

        The supervised executor multiplies its exponential backoff by
        ``1 + jitter_frac * backoff_jitter(...)``.  Deriving the draw
        from the plan's own :class:`numpy.random.SeedSequence` stream
        (never global RNG) keeps chaos drills replayable: the same plan
        seed produces the same sleep schedule on every run, in-process
        or forked, regardless of what else consumed random numbers.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return float(self._rng(_JITTER_STREAM, (step, shard, attempt)).random())


def _entry(kind: str) -> tuple[int, str, str]:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown fault kind {kind!r}; valid kinds: " + ", ".join(_KINDS)
        ) from None


def account(expected: list[tuple], events) -> tuple[list, list]:
    """Diff the fault ``events`` a health log recorded against ``expected``.

    ``expected`` holds ``(kind, *site)`` tuples, as
    :func:`expected_fault_events` and :func:`expected_serving_faults`
    enumerate them; each event is keyed by its kind and ``site``.
    Returns ``(missing, extra)``: planned faults the log never recorded,
    and recorded faults no plan entry explains (multiset semantics).
    Both empty means the log fully accounts for the injection campaign.
    """
    seen = Counter((e.kind, *e.site) for e in events)
    want = Counter(expected)
    return sorted((want - seen).elements()), sorted((seen - want).elements())


def expected_serving_faults(plan: FaultPlan, ticks: int) -> list[tuple[str, int]]:
    """Enumerate every serving fault the plan injects over ``ticks``.

    Directly comparable to the fault events a
    :class:`~repro.serving.health.ServingHealth` log records — the
    ``repro serve --chaos`` drill gates on the two matching exactly.
    """
    if ticks < 0:
        raise ValueError("ticks must be non-negative")
    expected = []
    for tick in range(ticks):
        for kind in SERVING_FAULT_KINDS:
            if plan.fires(kind, tick):
                expected.append((kind, tick))
    return expected


def expected_fault_events(
    plan: FaultPlan, spans_by_step: list[list[tuple[int, int]]]
) -> list[tuple[str, int, int]]:
    """Enumerate every fault the plan injects over a run's shard geometry.

    ``spans_by_step[s]`` is the ``(lo, hi)`` shard list of half-step ``s``
    (what :func:`repro.runtime.executor.partition_rows` produced).  Empty
    shards execute nothing and therefore inject nothing; a worker-kill
    pre-empts the site's other faults.  The result is what
    :func:`account` diffs a :class:`~repro.resilience.health.RunHealth`
    log against.
    """
    expected: list[tuple[str, int, int]] = []
    for step, spans in enumerate(spans_by_step):
        for shard, (lo, hi) in enumerate(spans):
            if hi <= lo:
                continue
            if plan.fires("fault.worker-kill", step, shard):
                expected.append(("fault.worker-kill", step, shard))
                continue
            for kind in ("fault.delay", "fault.nan-flip", "fault.fp16-overflow"):
                if plan.fires(kind, step, shard):
                    expected.append((kind, step, shard))
    return expected


def inject_shard_start(
    plan: FaultPlan,
    step: int,
    shard: int,
    attempt: int,
    *,
    forked: bool,
    events: list,
) -> None:
    """Run the shard-entry faults: kill first, then delay.

    Kill is recorded by the *supervisor* (a killed process cannot report),
    so this function does not append a kill event itself; delays are
    recorded here, in the executing process, and travel back to the
    parent in the shard outcome.
    """
    if plan.fires("fault.worker-kill", step, shard, attempt=attempt):
        if forked:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies
        raise InjectedWorkerKill(
            f"injected worker kill at step {step} shard {shard}"
        )
    if plan.fires("fault.delay", step, shard, attempt=attempt):
        time.sleep(plan.delay_seconds)
        events.append(
            {
                "kind": "fault.delay",
                "step": step,
                "shard": shard,
                "attempt": attempt,
                "detail": f"slept {plan.delay_seconds:g}s",
            }
        )


def solver_fault_hook(
    plan: FaultPlan,
    step: int,
    shard: int,
    attempt: int,
    row_offset: int,
    events: list,
    *,
    num_lanes: int,
) -> SolverFaultHook | None:
    """Build the CG-store corruption of one shard, or ``None``.

    The victim lanes are drawn over the shard's ``num_lanes`` rows, so
    they do not depend on how the executor batches those rows for the
    solver; :meth:`SolverFaultHook.block` hands each solver batch the
    corruption of the victims it holds.  The events (with the global
    ``lanes``, ``row_offset`` + victim) are recorded here, once per
    shard, in kind order: a shard that raises before its solve ends
    drops its events anyway.
    """
    victims = tuple(
        (kind, plan.victim_lane(kind, step, shard, num_lanes=num_lanes))
        for kind in ("fault.nan-flip", "fault.fp16-overflow")
        if plan.fires(kind, step, shard, attempt=attempt)
    )
    for kind, lane in victims:
        events.append(
            {
                "kind": kind,
                "step": step,
                "shard": shard,
                "attempt": attempt,
                "lanes": [row_offset + lane],
            }
        )
    return SolverFaultHook(victims) if victims else None


@dataclass(frozen=True)
class SolverFaultHook:
    """One shard's staged-store corruption: ``(kind, shard-local lane)`` pairs.

    The solver hands the hook its *staged* A batch (the FP16-emulating
    store, never the caller's pristine matrices), and the hook corrupts
    its victim lanes in place — NaN for the bit-rot model, ±inf for the
    unclipped-FP16-overflow model.  The pristine inputs stay intact,
    which is what makes the guard ladder's quarantine-and-re-solve rung
    able to repair the damage.
    """

    victims: tuple[tuple[str, int], ...]

    def block(self, start: int, stop: int):
        """The ``fault_hook`` for the solver batch of shard rows
        ``[start, stop)``, or ``None`` when no victim lies there."""
        hits = [
            (kind, lane - start)
            for kind, lane in self.victims
            if start <= lane < stop
        ]
        if not hits:
            return None

        def corrupt(store: np.ndarray) -> None:
            for kind, lane in hits:
                if kind == "fault.nan-flip":
                    store[lane] = np.nan
                else:
                    store[lane] = np.inf
                    store[lane, ::2] = -np.inf  # signed overflow, both directions

        return corrupt
