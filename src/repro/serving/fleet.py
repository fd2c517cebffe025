"""The :class:`FleetEngine`: a supervised multi-process serving fleet.

The single-process :class:`~repro.serving.engine.ServingEngine` bounds
throughput by one GEMM stream and bounds availability by one process:
a stalled or dying scorer takes the whole top-k path with it.  This
module serves through forked workers supervised by
:mod:`repro.runtime.supervisor` — the fork context, reply awaiting
and backoff it shares with
:class:`repro.runtime.executor.ShardExecutor` — and adds the fleet's
own policy on top:

* **workers** — N scoring processes forked at construction over the
  store's own factor matrices.  Those live in anonymous shared memory
  (:class:`~repro.serving.reload.ModelStore`), so the driver and every
  worker read one resident copy; the retrieval index and every other
  read-only structure crosses the fork boundary copy-on-write, so a
  worker costs no pickling on the hot path.  A
  :meth:`~repro.serving.reload.ModelStore.apply_delta` on the fleet's
  store therefore shows up in live workers' factor reads, while their
  index stays the fork-time snapshot.  Each worker runs the existing
  :class:`~repro.serving.batcher.MicroBatcher` stack and receives
  work over a duplex pipe as plain picklable
  :class:`~repro.serving.queue.Request` lists.
* **router** — each tick's ready set is partitioned by user id into
  contiguous ranges: ``worker = user * workers // num_users``.  With
  one worker the partition is the identity, which is what makes the
  fault-free fleet bit-identical to the single-process engine (the
  drill's equivalence leg).
* **supervision** — heartbeats on idle ticks (every idle worker is
  pinged, then all pongs are awaited under one deadline), a wall-clock
  batch deadline on dispatched ticks, worker-death detection as pipe
  EOF (both through :func:`~repro.runtime.supervisor.await_replies`),
  and bounded exponential-backoff respawn with a per-slot strike
  budget.
* **re-routing** — requests on a dead worker are recorded as
  ``request.rerouted`` and scored in-process *in the same tick*, so
  the :meth:`~repro.serving.health.ServingHealth.audit` partition
  (every submitted request → exactly one terminal) holds under any
  interleaving of kills.  Terminal events carry ``worker``
  attribution: the worker slot that scored the request, ``-1`` for
  the in-process path.
* **degrade latch** — after ``fleet_fault_limit`` worker faults the
  fleet records ``fleet.degrade-inline`` and latches to the
  single-process serving path (the pool is stopped); platforms
  without the ``fork`` start method latch at construction.  Either
  way the accounting contract is unchanged.

Chaos: the three fleet-scoped
:class:`~repro.resilience.faults.FaultPlan` kinds land in
:meth:`FleetEngine._on_fleet_fault` — ``fault.fleet-worker-kill``
SIGKILLs the victim mid-batch (or point-blank when idle),
``fault.fleet-worker-reload`` rolling-restarts one worker under
traffic, ``fault.fleet-heartbeat-stall`` makes the victim sleep
through its next pings until the supervisor declares a miss and
replaces it.  The ``fault.*`` record is written deterministically at
injection time (virtual tick), so fault accounting stays closed-form
(:func:`~repro.resilience.faults.expected_serving_faults`) even though
the ``worker.*`` supervision events depend on wall-clock timing.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from ..resilience.faults import FaultPlan
from ..runtime import supervisor
from ..runtime.arena import Workspace
from .batcher import MicroBatcher
from .engine import ServingConfig, ServingEngine
from .index import IndexConfig
from .queue import Request

__all__ = ["FleetConfig", "FleetEngine"]


@dataclass(frozen=True)
class FleetConfig:
    """Pool size and supervision policy for a :class:`FleetEngine`.

    ``heartbeat_timeout`` and ``batch_deadline`` are wall-clock seconds
    (supervision is the one place the serving stack touches the real
    clock); everything else the fleet does stays on the virtual tick
    clock so request accounting replays deterministically.
    """

    workers: int = 2
    heartbeat_timeout: float = 0.25  # seconds an idle worker may owe a pong
    batch_deadline: float = 30.0  # seconds a dispatched batch may take
    max_respawns: int = 3  # consecutive strikes before a slot is abandoned
    respawn_backoff_seconds: float = 0.01
    respawn_backoff_factor: float = 2.0
    respawn_backoff_max: float = 1.0  # backoff ceiling, seconds
    fleet_fault_limit: int = 8  # worker faults before latching inline

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.batch_deadline <= 0:
            raise ValueError("batch_deadline must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if self.respawn_backoff_seconds < 0:
            raise ValueError("respawn_backoff_seconds must be non-negative")
        if self.respawn_backoff_factor < 1:
            raise ValueError("respawn_backoff_factor must be >= 1")
        if self.respawn_backoff_max < self.respawn_backoff_seconds:
            raise ValueError(
                "respawn_backoff_max must be >= respawn_backoff_seconds"
            )
        if self.fleet_fault_limit < 1:
            raise ValueError("fleet_fault_limit must be >= 1")


def _fleet_worker_main(worker_id: int, conn) -> None:
    """Worker process entry: serve score/ping messages until stopped.

    Messages from the parent (tuples, pickled over the pipe):

    * ``("stop",)`` — exit cleanly.
    * ``("ping", seq)`` — heartbeat; answered with ``("pong", seq)``.
    * ``("stall", seconds)`` — chaos: sleep before touching the next
      message, so the following ping times out (heartbeat-stall drill).
    * ``("score", task_id, requests, poison_pos, die, nprobe,
      use_index)`` — score the batch; ``die`` SIGKILLs this process
      *before* answering (worker-kill-mid-batch drill: the parent sees
      pipe EOF with the batch outstanding).  Answered with
      ``("result", task_id, results, bad_rows)``.
    """
    x, theta, index = supervisor.fork_context()
    batcher = MicroBatcher(Workspace())
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "stop":
                return
            if kind == "stall":
                time.sleep(message[1])
                continue
            if kind == "ping":
                conn.send(("pong", message[1]))
                continue
            if kind == "score":
                _, task_id, requests, poison_pos, die, nprobe, use_index = message
                if die:
                    os.kill(os.getpid(), signal.SIGKILL)
                results, bad_rows = batcher.score_batch(
                    x,
                    theta,
                    requests,
                    poison_row=poison_pos,
                    index=index if use_index else None,
                    nprobe=nprobe,
                )
                conn.send(("result", task_id, results, bad_rows))
    except (BrokenPipeError, OSError):
        return  # parent is gone; nothing left to report to
    finally:
        try:
            conn.close()
        except Exception:
            pass


class FleetEngine(ServingEngine):
    """N supervised scoring workers behind the ServingEngine contract.

    A drop-in :class:`~repro.serving.engine.ServingEngine`: same
    :meth:`submit` / :meth:`tick` / :meth:`reload` surface, same
    :class:`~repro.serving.health.ServingHealth` accounting — plus a
    worker pool whose deaths, stalls and respawns are supervised and
    recorded.  With ``FleetConfig(workers=1)`` and no faults the fleet
    serves bit-identically to the single-process engine (same batches,
    same GEMMs, same terminal events) — the property the fleet drill's
    equivalence leg and the VF111 fuzz check pin down.
    """

    def __init__(
        self,
        model_path: str | os.PathLike,
        *,
        fleet: FleetConfig | None = None,
        config: ServingConfig | None = None,
        popularity: np.ndarray | None = None,
        faults: FaultPlan | None = None,
        workspace: Workspace | None = None,
        index_config: IndexConfig | None = None,
        nprobe: int | None = None,
    ) -> None:
        self.fleet = fleet if fleet is not None else FleetConfig()
        super().__init__(
            model_path,
            config=config,
            popularity=popularity,
            faults=faults,
            workspace=workspace,
            index_config=index_config,
            nprobe=nprobe,
        )
        self._workers: list[supervisor.Worker | None] = [None] * self.fleet.workers
        self._respawns = [0] * self.fleet.workers  # lifetime totals (stats)
        #: Consecutive faults per slot since it last proved liveness
        #: (answered a batch or a ping).  Drives both the exponential
        #: backoff and the abandon decision, so a worker that keeps
        #: dying backs off harder while one that recovered starts fresh.
        self._strikes = [0] * self.fleet.workers
        self._next_task = 0
        self._ping_seq = 0
        self._fleet_faults = 0
        self._inline_latched = False
        self._kill_victim: int | None = None
        #: Fleet counters (stats()).
        self.worker_batches = 0
        self.inline_batches = 0
        self.rerouted_requests = 0
        self.heartbeat_misses = 0
        self.worker_deaths = 0
        if not supervisor.fork_available():
            self._latch_inline(self.tick_now, "fork start method unavailable")
            return
        for wid in range(self.fleet.workers):
            self._spawn(wid)
            self.health.record(
                "worker.spawned", tick=self.tick_now, worker=wid
            )

    # -- pool lifecycle -----------------------------------------------------

    def _spawn(self, wid: int) -> None:
        """Fork slot ``wid`` over the served factors and current index."""
        index = self.store.index if self.store.index_current else None
        self._workers[wid] = supervisor.fork_worker(
            _fleet_worker_main,
            (wid,),
            (self.store.x, self.store.theta, index),
            duplex=True,
        )

    def _respawn(self, wid: int, tick: int, detail: str) -> bool:
        """Replace a dead slot, bounded-backoff; False when out of budget.

        The backoff grows exponentially in the slot's *consecutive*
        strike count (reset whenever the worker proves liveness) and is
        capped at ``respawn_backoff_max`` — a slot that keeps dying
        backs off harder, a slot that recovered starts fresh.
        """
        if self._inline_latched:
            return False
        if self._strikes[wid] >= self.fleet.max_respawns:
            self._workers[wid] = None
            return False
        time.sleep(
            supervisor.backoff(
                self.fleet.respawn_backoff_seconds,
                self.fleet.respawn_backoff_factor,
                self._strikes[wid],
                cap=self.fleet.respawn_backoff_max,
            )
        )
        self._strikes[wid] += 1
        self._respawns[wid] += 1
        self._spawn(wid)
        self.health.record(
            "worker.respawned", tick=tick, worker=wid, detail=detail
        )
        return True

    def _reap(self, wid: int) -> None:
        """Kill + join + close one slot's process and pipe (idempotent)."""
        handle, self._workers[wid] = self._workers[wid], None
        if handle is not None:
            handle.reap()

    def _worker_down(self, wid: int, tick: int, detail: str, *,
                     died: bool = True) -> None:
        """One worker fault: record, reap, count, respawn (or latch)."""
        if died:
            self.worker_deaths += 1
            self.health.record(
                "worker.died", tick=tick, worker=wid, detail=detail
            )
        self._reap(wid)
        self._note_fault(tick)
        self._respawn(wid, tick, detail)

    def _note_fault(self, tick: int) -> None:
        self._fleet_faults += 1
        if (
            self._fleet_faults >= self.fleet.fleet_fault_limit
            and not self._inline_latched
        ):
            self._latch_inline(
                tick, f"{self._fleet_faults} worker faults; pool unhealthy"
            )

    def _latch_inline(self, tick: int, detail: str) -> None:
        """Permanently fall back to the in-process serving path."""
        self._inline_latched = True
        self.health.record("fleet.degrade-inline", tick=tick, detail=detail)
        self._stop_workers()

    def _pool_active(self) -> bool:
        return not self._inline_latched and any(
            h is not None for h in self._workers
        )

    def _stop_workers(self) -> None:
        for wid, handle in enumerate(self._workers):
            if handle is None:
                continue
            try:
                handle.conn.send(("stop",))
            except Exception:
                pass
            handle.proc.join(timeout=0.5)
            self._reap(wid)

    def close(self) -> None:
        """Stop the pool (idempotent)."""
        self._stop_workers()

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- the tick loop ------------------------------------------------------

    def tick(self) -> None:
        """One virtual tick: chaos, expiry, fleet-wide service, heartbeats.

        The take cap scales with the pool width (each worker serves up
        to ``max_batch`` requests per tick); latched inline it reverts
        to the single-engine cap, and with ``workers=1`` the two are
        equal — batch composition, and hence the GEMM bits, match the
        single-process engine exactly.
        """
        tick = self.tick_now
        self._apply_chaos(tick)
        width = self.fleet.workers if self._pool_active() else 1
        ready, expired = self.queue.take(tick, self.config.max_batch * width)
        for request in expired:
            self.health.record(
                "request.shed",
                tick=tick,
                request_id=request.request_id,
                detail="deadline",
            )
        dispatched: set[int] = set()
        if ready:
            dispatched = self._serve_fleet(ready, tick)
        if self._kill_victim is not None:
            # The chaos victim had no batch this tick: kill it point-blank.
            wid, self._kill_victim = self._kill_victim, None
            if self._workers[wid] is not None:
                self._worker_down(wid, tick, "chaos kill (idle)")
        self._heartbeat_round(tick, dispatched)
        self._stall_pending = False
        self._nan_pending = False
        self.tick_now += 1

    # -- fleet scoring ------------------------------------------------------

    def _serve_batch(self, ready: list[Request], tick: int) -> None:
        # Kept for callers holding the base-class contract; tick() calls
        # _serve_fleet directly to learn which workers were dispatched.
        self._serve_fleet(ready, tick)

    def _serve_fleet(self, ready: list[Request], tick: int) -> set[int]:
        """Route, dispatch, collect, re-route; returns dispatched slots."""
        if not self._pool_active():
            super(FleetEngine, self)._serve_batch(ready, tick)
            return set()
        if not self.breaker.allow(tick):
            for request in ready:
                self._degrade(request, tick)
            return set()
        if self._stall_pending:
            self.breaker.record_failure(tick)
            for request in ready:
                self._degrade(request, tick)
            return set()
        poison_row = None
        if self._nan_pending and self.faults is not None:
            poison_row = self.faults.victim_lane(
                "fault.score-nan", tick, num_lanes=len(ready)
            )
        index = None
        brute_fallback = False
        if self.store.index_enabled:
            if self.store.index_current:
                index = self.store.index
            else:
                brute_fallback = True

        # Router: contiguous user ranges, one group per worker slot.
        num_users = self.store.x.shape[0]
        width = self.fleet.workers
        groups: dict[int, list[int]] = {}
        for i, request in enumerate(ready):
            wid = request.user * width // num_users
            groups.setdefault(wid, []).append(i)

        results: list = [None] * len(ready)
        bad: set[int] = set()
        worker_of: dict[int, int] = {}
        outstanding: dict[int, tuple[int, list[int], int | None]] = {}
        for wid, rows in sorted(groups.items()):
            handle = self._workers[wid]
            poison_pos = rows.index(poison_row) if poison_row in rows else None
            if handle is None:
                # Dead slot out of respawn budget: serve its range
                # in-process.  Not a re-route — nothing was dispatched.
                self._score_inline(
                    ready, rows, poison_pos, index, results, bad, worker_of
                )
                continue
            die = self._kill_victim == wid
            if die:
                self._kill_victim = None
            task_id = self._next_task
            self._next_task += 1
            sub = [ready[i] for i in rows]
            try:
                handle.conn.send(
                    ("score", task_id, sub, poison_pos, die,
                     self.nprobe, index is not None)
                )
            except (BrokenPipeError, OSError):
                self._worker_down(wid, tick, "dispatch failed (pipe closed)")
                self._score_inline(
                    ready, rows, poison_pos, index, results, bad, worker_of
                )
                continue
            self.worker_batches += 1
            outstanding[wid] = (task_id, rows, poison_pos)
        dispatched = set(outstanding)

        self._collect(
            outstanding, ready, tick, index, results, bad, worker_of
        )
        self.breaker.record_success(tick)

        for i, request in enumerate(ready):
            wid = worker_of.get(i, -1)
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
                    worker=wid,
                    user=request.user,
                )
            else:
                self.health.record(
                    "request.answered",
                    tick=tick,
                    request_id=request.request_id,
                    worker=wid,
                    user=request.user,
                )
        return dispatched

    def _score_inline(
        self,
        ready: list[Request],
        rows: list[int],
        poison_pos: int | None,
        index,
        results: list,
        bad: set[int],
        worker_of: dict[int, int],
    ) -> None:
        """Score a sub-batch in-process (dead slot or re-route)."""
        self.inline_batches += 1
        sub = [ready[i] for i in rows]
        sub_results, sub_bad = self.batcher.score_batch(
            self.store.x,
            self.store.theta,
            sub,
            poison_row=poison_pos,
            index=index,
            nprobe=self.nprobe,
        )
        for j, i in enumerate(rows):
            results[i] = sub_results[j]
            worker_of[i] = -1
        bad.update(rows[j] for j in sub_bad)

    def _collect(
        self,
        outstanding: dict[int, tuple[int, list[int], int | None]],
        ready: list[Request],
        tick: int,
        index,
        results: list,
        bad: set[int],
        worker_of: dict[int, int],
    ) -> None:
        """Await every dispatched group; re-route the dead ones inline.

        All replies are awaited under one batch deadline before any
        fault is handled, so a respawn's backoff never delays the
        collection of the healthy workers' results.
        """
        deadline = time.monotonic() + self.fleet.batch_deadline
        pending = {}
        for wid in outstanding:
            pending[wid] = self._workers[wid]
            pending[wid].deadline = deadline

        def accept(wid: int, message) -> bool:
            # a stale pong or result is dropped and the worker awaited on
            return message[0] == "result" and message[1] == outstanding[wid][0]

        for wid, _, message, fail in list(supervisor.await_replies(pending, accept)):
            _, rows, poison_pos = outstanding[wid]
            if fail is None:
                sub_results, sub_bad = message[2], message[3]
                for j, i in enumerate(rows):
                    results[i] = sub_results[j]
                    worker_of[i] = wid
                bad.update(rows[j] for j in sub_bad)
                self._strikes[wid] = 0  # proved liveness
                continue
            if fail == supervisor.DEADLINE:
                fail = "batch deadline exceeded"
            self._worker_down(wid, tick, fail)
            for i in rows:
                self.rerouted_requests += 1
                self.health.record(
                    "request.rerouted",
                    tick=tick,
                    request_id=ready[i].request_id,
                    worker=wid,
                    detail=fail,
                )
            self._score_inline(
                ready, rows, poison_pos, index, results, bad, worker_of
            )

    # -- heartbeats ---------------------------------------------------------

    def _heartbeat_round(self, tick: int, dispatched: set[int]) -> None:
        """Ping every idle live worker; replace the unresponsive ones.

        Workers that served a batch this tick already proved liveness;
        pinging only the idle ones keeps the fleet's failure-detection
        latency at one tick without doubling pipe traffic.  Every idle
        worker is pinged first and all pongs are then awaited under one
        deadline, so a stalled worker costs the round one timeout, not
        one per worker.
        """
        if not self._pool_active():
            return
        self._ping_seq += 1
        ping = ("ping", self._ping_seq)
        deadline = time.monotonic() + self.fleet.heartbeat_timeout
        pending: dict[int, supervisor.Worker] = {}
        misses: list[tuple[int, str]] = []
        for wid, handle in enumerate(self._workers):
            if handle is None or wid in dispatched:
                continue
            try:
                handle.conn.send(ping)
            except (BrokenPipeError, OSError):
                misses.append((wid, "ping failed (pipe closed)"))
                continue
            handle.deadline = deadline
            pending[wid] = handle
        pong = ("pong", self._ping_seq)
        replies = supervisor.await_replies(pending, lambda _, msg: msg == pong)
        for wid, _, _, fail in list(replies):
            if fail is None:
                self._strikes[wid] = 0  # proved liveness
            else:
                misses.append(
                    (wid, "pong overdue" if fail == supervisor.DEADLINE else fail)
                )
        for wid, miss in sorted(misses):
            self.heartbeat_misses += 1
            self.health.record(
                "worker.heartbeat-miss", tick=tick, worker=wid, detail=miss
            )
            self._worker_down(wid, tick, miss, died=False)

    # -- chaos --------------------------------------------------------------

    def _on_fleet_fault(self, kind: str, tick: int) -> None:
        """Make the fleet-scoped injections hurt an actual worker."""
        if not self._pool_active() or self.faults is None:
            return  # recorded already; nothing to break
        wid = self.faults.victim_lane(kind, tick, num_lanes=self.fleet.workers)
        if kind == "fault.fleet-worker-kill":
            # Deferred to dispatch: a victim holding a batch is killed
            # mid-batch (the acceptance-criterion scenario); an idle
            # victim is killed at the end of tick().
            self._kill_victim = wid
        elif kind == "fault.fleet-worker-reload":
            if self._workers[wid] is not None:
                self._reap(wid)
                self._respawn(wid, tick, "chaos rolling reload")
        elif kind == "fault.fleet-heartbeat-stall":
            handle = self._workers[wid]
            if handle is not None:
                try:
                    handle.conn.send(
                        ("stall", 3.0 * self.fleet.heartbeat_timeout)
                    )
                except (BrokenPipeError, OSError):
                    pass  # already dying; the collectors will notice

    # -- hot reload ---------------------------------------------------------

    def reload(self, path: str | os.PathLike):
        """Swap the model fleet-wide: respawn every worker on success.

        A swap installs new factor arrays and a new index, while each
        worker holds the ones it was forked over, so every live worker
        is replaced with one forked over the new model.  Rollbacks and
        no-ops touch nothing.
        """
        outcome = super().reload(path)
        if outcome.status == "swapped" and self._pool_active():
            tick = self.tick_now
            for wid in range(self.fleet.workers):
                if self._workers[wid] is None:
                    continue
                self._reap(wid)
                self._spawn(wid)
                self.health.record(
                    "worker.respawned",
                    tick=tick,
                    worker=wid,
                    detail=f"model v{self.store.version} restage",
                )
        return outcome

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        data = super().stats()
        data.update(
            {
                "fleet_workers": self.fleet.workers,
                "fleet_live_workers": sum(
                    1 for h in self._workers if h is not None
                ),
                "fleet_respawns": sum(self._respawns),
                "fleet_faults": self._fleet_faults,
                "fleet_inline_latched": self._inline_latched,
                "fleet_worker_batches": self.worker_batches,
                "fleet_inline_batches": self.inline_batches,
                "fleet_rerouted_requests": self.rerouted_requests,
                "fleet_heartbeat_misses": self.heartbeat_misses,
                "fleet_worker_deaths": self.worker_deaths,
            }
        )
        return data
