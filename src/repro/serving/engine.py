"""The :class:`ServingEngine`: fault-tolerant in-process top-k serving.

Ties the serving subsystem together around a virtual tick clock:

* **admission** — :meth:`submit` validates the request, stamps its
  deadline budget and offers it to the bounded
  :class:`~repro.serving.queue.AdmissionQueue`; a full queue sheds at
  the door.
* **scoring** — each :meth:`tick` collects up to ``max_batch`` live
  requests and scores them as **one** GEMM through the
  :class:`~repro.serving.batcher.MicroBatcher` (runtime workspace
  arena; zero steady-state allocations).  With an
  :class:`~repro.serving.index.IndexConfig` the batch routes through
  the sublinear IVF probe path instead, ``nprobe`` cells per user
  (per-request override via :meth:`submit`).
* **degradation ladder** — full MF top-k → brute force (index enabled
  but missing/stale: exact scores at full cost) → stale cache →
  popularity baseline → structured :class:`ServingFault`.  A
  :class:`~repro.serving.breaker.CircuitBreaker` skips doomed scoring
  attempts while the backend is failing.
* **hot reload** — :meth:`reload` swaps factors mid-traffic through the
  checksum-verified :class:`~repro.serving.reload.ModelStore`; corrupt
  or non-finite artifacts roll back without a dropped request.
* **observability** — every request's life is recorded in the
  :class:`~repro.serving.health.ServingHealth` log, whose multiset
  audit proves no request was lost; chaos injections from a
  :class:`~repro.resilience.faults.FaultPlan` land here via
  :meth:`_apply_chaos` and are accounted tick-exactly.

Everything is deterministic: no wall clock, no global RNG — the same
request stream against the same plan replays bit-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..resilience.faults import FaultPlan
from ..runtime.arena import Workspace
from .batcher import MicroBatcher
from .breaker import BreakerConfig, CircuitBreaker
from .fallback import PopularityFallback, StaleCache
from .health import ServingHealth
from .index import IndexConfig
from .queue import AdmissionQueue, QueueConfig, Request
from .reload import ModelStore, ReloadOutcome

__all__ = ["ServingConfig", "ServingEngine", "ServingFault"]


#: Rows per block of the popularity proxy's float64 pass.
_NORM_ROWS = 8192


def _row_norms(theta: np.ndarray) -> np.ndarray:
    """Float64 row norms of ``theta``, one row block at a time (each
    row's norm does not depend on the blocking)."""
    out = np.empty(theta.shape[0], dtype=np.float64)
    for lo in range(0, theta.shape[0], _NORM_ROWS):
        block = theta[lo:lo + _NORM_ROWS].astype(np.float64)
        out[lo:lo + block.shape[0]] = np.linalg.norm(block, axis=1)
    return out


class ServingFault(RuntimeError):
    """The degradation ladder's floor: a request that could not be served.

    Structured so callers (and the audit log) can say exactly what
    failed: ``kind`` is a short machine-readable cause, ``tick`` and
    ``request_id`` locate the failure in the engine's timeline.
    """

    def __init__(
        self, kind: str, *, tick: int = -1, request_id: int = -1, detail: str = ""
    ) -> None:
        self.kind = kind
        self.tick = tick
        self.request_id = request_id
        self.detail = detail
        super().__init__(
            f"{kind} (tick={tick}, request={request_id})"
            + (f": {detail}" if detail else "")
        )


@dataclass(frozen=True)
class ServingConfig:
    """Engine knobs: admission, batching, cache and breaker policy."""

    queue_capacity: int = 64
    max_batch: int = 16
    budget_ticks: int = 8
    cache_capacity: int = 256
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.budget_ticks < 0:
            raise ValueError("budget_ticks must be non-negative")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


class ServingEngine:
    """In-process top-k recommendation serving over a factor model."""

    def __init__(
        self,
        model_path: str | os.PathLike,
        *,
        config: ServingConfig | None = None,
        popularity: np.ndarray | None = None,
        faults: FaultPlan | None = None,
        workspace: Workspace | None = None,
        index_config: IndexConfig | None = None,
        nprobe: int | None = None,
    ) -> None:
        if nprobe is not None and nprobe < 1:
            raise ValueError("nprobe must be >= 1 (or None for the default)")
        self.config = config if config is not None else ServingConfig()
        self.health = ServingHealth()
        #: Engine-level probe default (below per-request ``nprobe``,
        #: above the index's own derived default).
        self.nprobe = nprobe
        self.store = ModelStore(index_config=index_config)
        self.store.swap(model_path)  # initial load: raises on corrupt file
        if popularity is None:
            # Factor-norm proxy, snapshotted now: the baseline must keep
            # working even if every later reload is rolled back.
            popularity = _row_norms(self.store.theta)
        self.fallback = PopularityFallback(popularity)
        self.queue = AdmissionQueue(
            QueueConfig(
                capacity=self.config.queue_capacity,
                default_budget_ticks=self.config.budget_ticks,
            )
        )
        self.batcher = MicroBatcher(workspace)
        self.breaker = CircuitBreaker(self.config.breaker, self.health)
        self.cache = StaleCache(self.config.cache_capacity)
        self.faults = faults
        #: Chaos targets for the reload fault kinds; set by the drill.
        self.chaos_reload_path: str | None = None
        self.chaos_corrupt_path: str | None = None
        self.tick_now = 0
        self.results: dict[int, list[tuple[int, float]]] = {}
        self.errors: dict[int, ServingFault] = {}
        self._next_id = 0
        self._stall_pending = False
        self._nan_pending = False

    # -- admission ----------------------------------------------------------

    def submit(
        self,
        user: int,
        k: int,
        *,
        budget_ticks: int | None = None,
        exclude: tuple[int, ...] = (),
        nprobe: int | None = None,
    ) -> int:
        """Submit a top-k request; returns its id.

        ``nprobe`` is the per-request exactness knob of the retrieval
        index (cells to probe; >= the index's ``ncells`` serves the
        request brute-force, i.e. exactly).  ``None`` defers to the
        engine default, then the index default.

        Invalid requests (unknown user, bad k) are faulted immediately
        with a structured :class:`ServingFault` recorded against the
        id — they never occupy queue capacity.  A full queue sheds the
        request (recorded, not raised): shedding is back-pressure, not
        an error.
        """
        tick = self.tick_now
        rid = self._next_id
        self._next_id += 1
        self.health.record("request.submitted", tick=tick, request_id=rid)
        budget = (
            self.config.budget_ticks if budget_ticks is None else budget_ticks
        )
        try:
            if not 0 <= user < self.store.x.shape[0]:
                raise ServingFault(
                    "invalid-request",
                    tick=tick,
                    request_id=rid,
                    detail=f"unknown user {user}",
                )
            if budget < 0:
                raise ServingFault(
                    "invalid-request",
                    tick=tick,
                    request_id=rid,
                    detail=f"negative budget {budget}",
                )
            request = Request(
                request_id=rid,
                user=user,
                k=k,
                submitted_tick=tick,
                deadline_tick=tick + budget,
                exclude=tuple(int(i) for i in exclude),
                nprobe=nprobe,
            )
        except (ServingFault, ValueError) as exc:
            fault = (
                exc
                if isinstance(exc, ServingFault)
                else ServingFault(
                    "invalid-request", tick=tick, request_id=rid, detail=str(exc)
                )
            )
            self.errors[rid] = fault
            self.health.record(
                "request.faulted",
                tick=tick,
                request_id=rid,
                detail="invalid-request",
            )
            return rid
        if self.queue.offer(request):
            self.health.record("request.admitted", tick=tick, request_id=rid)
        else:
            self.health.record(
                "request.shed", tick=tick, request_id=rid, detail="queue-full"
            )
        return rid

    # -- the tick loop ------------------------------------------------------

    def tick(self) -> None:
        """Advance one virtual tick: chaos, expiry, one batch of service."""
        tick = self.tick_now
        self._apply_chaos(tick)
        ready, expired = self.queue.take(tick, self.config.max_batch)
        for request in expired:
            self.health.record(
                "request.shed",
                tick=tick,
                request_id=request.request_id,
                detail="deadline",
            )
        if ready:
            self._serve_batch(ready, tick)
        self._stall_pending = False
        self._nan_pending = False
        self.tick_now += 1

    def run_until_drained(self, max_ticks: int = 100_000) -> int:
        """Tick until the queue is empty; returns ticks executed."""
        executed = 0
        while len(self.queue) and executed < max_ticks:
            self.tick()
            executed += 1
        return executed

    # -- scoring + ladder ---------------------------------------------------

    def _serve_batch(self, ready: list[Request], tick: int) -> None:
        if not self.breaker.allow(tick):
            for request in ready:
                self._degrade(request, tick)
            return
        if self._stall_pending:
            # The backend stalled under this batch: no answers this tick.
            self.breaker.record_failure(tick)
            for request in ready:
                self._degrade(request, tick)
            return
        poison_row = None
        if self._nan_pending and self.faults is not None:
            poison_row = self.faults.victim_lane(
                "fault.score-nan", tick, num_lanes=len(ready)
            )
        # Index routing: a *current* index serves the probed sublinear
        # path as full top-k.  An enabled-but-missing/stale index (e.g.
        # a budget-skipped build after a swap) is the ladder's first
        # rung: the batch is scored by the exact brute-force GEMM and
        # each answer is attributed ``rung="brute-force"`` — a distinct
        # terminal from ``request.answered`` so the audit partition
        # never double-counts an index miss.
        index = None
        brute_fallback = False
        if self.store.index_enabled:
            if self.store.index_current:
                index = self.store.index
            else:
                brute_fallback = True
        results, bad_rows = self.batcher.score_batch(
            self.store.x,
            self.store.theta,
            ready,
            poison_row=poison_row,
            index=index,
            nprobe=self.nprobe,
        )
        self.breaker.record_success(tick)
        bad = set(bad_rows)
        for i, request in enumerate(ready):
            if i in bad or results[i] is None:
                self._degrade(request, tick)
                continue
            self.results[request.request_id] = results[i]
            self.cache.put(
                request.user, request.k, results[i], self.store.version
            )
            if brute_fallback:
                self.health.record(
                    "request.degraded",
                    tick=tick,
                    request_id=request.request_id,
                    rung="brute-force",
                    detail="index missing or stale",
                    user=request.user,
                )
            else:
                self.health.record(
                    "request.answered",
                    tick=tick,
                    request_id=request.request_id,
                    user=request.user,
                )

    def _degrade(self, request: Request, tick: int) -> None:
        """Walk the lower ladder: stale cache → popularity → ServingFault.

        (The ``brute-force`` rung above these lives in
        :meth:`_serve_batch`: it still *scores* the batch, so it is a
        routing decision, not a scoring-failure fallback.)
        """
        rid = request.request_id
        cached = self.cache.get(request.user, request.k)
        if cached is not None:
            version, recommendations = cached
            self.results[rid] = recommendations
            self.health.record(
                "request.degraded",
                tick=tick,
                request_id=rid,
                rung="stale-cache",
                detail=f"model v{version}",
            )
            return
        try:
            recommendations = self.fallback.top_k(request.k, request.exclude)
        except Exception as exc:  # ladder floor: nothing left to try
            fault = ServingFault(
                "ladder-exhausted", tick=tick, request_id=rid, detail=str(exc)
            )
            self.errors[rid] = fault
            self.health.record(
                "request.faulted",
                tick=tick,
                request_id=rid,
                detail="ladder-exhausted",
            )
            return
        self.results[rid] = recommendations
        self.health.record(
            "request.degraded",
            tick=tick,
            request_id=rid,
            rung="popularity",
        )

    # -- hot reload ---------------------------------------------------------

    def reload(self, path: str | os.PathLike) -> ReloadOutcome:
        """Swap the served model under traffic; rolls back on bad artifacts."""
        return self.store.swap(path, health=self.health, tick=self.tick_now)

    def probe_scores(self, user: int) -> np.ndarray:
        """Raw score vector for ``user`` — the bit-equivalence probe."""
        if not 0 <= user < self.store.x.shape[0]:
            raise IndexError(f"unknown user {user}")
        return self.store.theta @ self.store.x[user]

    # -- chaos --------------------------------------------------------------

    def _apply_chaos(self, tick: int) -> None:
        """Inject this tick's planned faults (recorded tick-exactly).

        Every firing is recorded even when its target is absent (e.g. no
        chaos reload path configured) so the health log always matches
        :func:`~repro.resilience.faults.expected_serving_faults`.
        """
        plan = self.faults
        if plan is None:
            return
        if plan.fires("fault.backend-stall", tick):
            self._stall_pending = True
            self.health.record("fault.backend-stall", tick=tick)
        if plan.fires("fault.score-nan", tick):
            self._nan_pending = True
            self.health.record("fault.score-nan", tick=tick)
        if plan.fires("fault.reload-during-traffic", tick):
            self.health.record("fault.reload-during-traffic", tick=tick)
            if self.chaos_reload_path is not None:
                self.reload(self.chaos_reload_path)
        if plan.fires("fault.corrupt-model-file", tick):
            self.health.record("fault.corrupt-model-file", tick=tick)
            if self.chaos_corrupt_path is not None:
                self.reload(self.chaos_corrupt_path)
        # Fleet-scoped kinds: the single-process engine has no workers,
        # so the firings are recorded as no-ops — accounting still
        # balances when a fleet plan replays against this engine.  The
        # FleetEngine overrides the hook to actually hurt a worker.
        for kind in (
            "fault.fleet-worker-kill",
            "fault.fleet-worker-reload",
            "fault.fleet-heartbeat-stall",
        ):
            if plan.fires(kind, tick):
                self.health.record(kind, tick=tick)
                self._on_fleet_fault(kind, tick)
        # Ingest-scoped kinds: same record-even-if-noop discipline.  The
        # ingest drill wires the hook to arm the streaming engine's
        # torn-append / poisoned-fold-in / forced-apply behaviours.
        for kind in (
            "fault.wal-torn-write",
            "fault.fold-in-nan",
            "fault.delta-apply-during-traffic",
        ):
            if plan.fires(kind, tick):
                self.health.record(kind, tick=tick)
                self._on_ingest_fault(kind, tick)

    def _on_fleet_fault(self, kind: str, tick: int) -> None:
        """Hook for fleet-scoped chaos; no-op without a worker pool."""

    def _on_ingest_fault(self, kind: str, tick: int) -> None:
        """Hook for ingest-scoped chaos; no-op without an ingest pipeline.

        The streaming drill assigns ``on_ingest_fault`` to intercept
        firings without subclassing.
        """
        callback = getattr(self, "on_ingest_fault", None)
        if callback is not None:
            callback(kind, tick)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Operational snapshot (JSON-ready) for reports and the CLI."""
        return {
            "tick": self.tick_now,
            "queue_depth": len(self.queue),
            "offered": self.queue.offered,
            "rejected": self.queue.rejected,
            "expired": self.queue.expired,
            "batches": self.batcher.batches,
            "requests_scored": self.batcher.requests_scored,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "model_version": self.store.version,
            "model_swaps": self.store.swaps,
            "model_rollbacks": self.store.rollbacks,
            "index_enabled": self.store.index_enabled,
            "index_current": self.store.index_current,
            "index_builds": self.store.index_builds,
            "index": (
                self.store.index.stats() if self.store.index_current else None
            ),
            "index_routed": self.batcher.index_routed,
            "brute_routed": self.batcher.brute_routed,
            "availability": self.health.availability(),
            "workspace_resident_bytes": self.batcher.workspace.resident_bytes,
            "workspace_peak_bytes": self.batcher.workspace.peak_resident_bytes,
        }
