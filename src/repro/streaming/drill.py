"""Ingestion chaos drill: prove crash-safe streaming under faults.

``run_ingest_drill`` is the engine behind ``repro ingest`` and CI's
ingest-smoke job.  One invocation runs two legs:

1. **kill-replay** (always): the same scripted ingest/apply sequence is
   run uninterrupted in one directory and killed halfway — mid-batch,
   with a torn record on disk — in another.  The killed run is resumed
   from ``base checkpoint + ordered deltas + WAL tail`` and driven to
   the same end; both factor matrices, and the state digest, must be
   **bit-identical**.  The schedule crosses a compaction boundary, so
   corpus snapshots and WAL truncation are in the replayed path.

2. **stream** (*chaos* tier): a seeded request stream against a
   :class:`~repro.serving.engine.ServingEngine` while ratings stream
   into an :class:`~repro.streaming.IngestEngine` feeding the live
   :class:`~repro.serving.reload.ModelStore` through
   :meth:`~repro.serving.reload.ModelStore.apply_delta`.  The fault
   plan fires torn WAL writes, poisoned fold-in lanes, and forced
   delta applies mid-traffic.  Gates: the health accounting balances,
   every planned fault is accounted tick-exactly, availability stays
   ≥ :data:`~repro.serving.drill.AVAILABILITY_FLOOR` (the shared
   :func:`~repro.serving.drill.audit_serving`), the
   read-your-writes audit holds (every acked rating is folded in
   before its user's next freshly scored answer), rows outside the
   dirty sets are **bit-identical** to the pre-stream factors, and the
   serving arrays match the ingest engine's byte-for-byte.

The returned report is plain JSON-able data with an overall ``ok``
flag, mirroring :func:`repro.serving.drill.run_serving_drill`.

Imported lazily (by the CLI / tests) — it pulls in the trainers.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from ..resilience.faults import FaultPlan
from ..serving.drill import audit_serving, synthetic_workload, train_and_save
from ..serving.engine import ServingConfig, ServingEngine
from ..serving.index import IndexConfig
from .ingest import IngestConfig, IngestEngine

__all__ = ["INGEST_DRILL_RATES", "run_ingest_drill"]

#: Default injection rates for the ingestion chaos drill (per tick):
#: the three ingestion kinds plus a light helping of the shared serving
#: kinds, so fold-in runs under the same back-pressure it ships with.
INGEST_DRILL_RATES = {
    "stall_rate": 0.04,
    "score_nan_rate": 0.04,
    "wal_torn_rate": 0.06,
    "foldin_nan_rate": 0.06,
    "delta_apply_rate": 0.10,
}


def _scripted_ops(seed: int, m: int, n: int, count: int, apply_every: int) -> list:
    """Deterministic (kind, payload) sequence for the kill-replay leg."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    ops: list[tuple[str, tuple]] = []
    for i in range(count):
        ops.append(
            (
                "rating",
                (
                    int(rng.integers(0, m)),
                    int(rng.integers(0, n)),
                    float(np.float32(rng.uniform(1.0, 5.0))),
                ),
            )
        )
        if (i + 1) % apply_every == 0:
            ops.append(("apply", ()))
    return ops


def _run_ops(engine: IngestEngine, ops: list) -> None:
    for kind, payload in ops:
        if kind == "rating":
            engine.ingest(*payload)
        else:
            engine.apply()


def _kill_replay_leg(
    workdir: str,
    seed: int,
    x0: np.ndarray,
    theta0: np.ndarray,
    train,
    config: IngestConfig,
) -> dict:
    """Uninterrupted run vs killed-and-resumed run; must be bit-identical."""
    m, n = x0.shape[0], theta0.shape[0]
    ops = _scripted_ops(seed, m, n, count=40, apply_every=5)
    kill_at = len(ops) // 2

    dir_a = os.path.join(workdir, "stream-a")
    engine_a = IngestEngine(x0, theta0, train, config=config, directory=dir_a)
    _run_ops(engine_a, ops)
    engine_a.close()

    dir_b = os.path.join(workdir, "stream-b")
    engine_b = IngestEngine(x0, theta0, train, config=config, directory=dir_b)
    _run_ops(engine_b, ops[:kill_at])
    # The kill: a record torn mid-write (power loss between write and
    # fsync — never acked), then the process is gone.  No close(), no
    # final apply; recovery owes us a truncated tail and an exact replay.
    engine_b.wal.append_torn(0, 0, 3.0)
    del engine_b

    resumed = IngestEngine.resume(dir_b, train, config=config)
    torn_dropped = resumed.wal.truncated_bytes
    _run_ops(resumed, ops[kill_at:])

    bit_identical = bool(
        resumed.digest == engine_a.digest
        and resumed.x.tobytes() == engine_a.x.tobytes()
        and resumed.theta.tobytes() == engine_a.theta.tobytes()
    )
    # Resume of the *finished* directory must land on the same digest
    # too — the chain verifies end-to-end, not just after a kill.
    reopened = IngestEngine.resume(dir_a, train, config=config)
    resume_verified = bool(reopened.digest == engine_a.digest)
    reopened.close()
    resumed.close()

    return {
        "ops": len(ops),
        "kill_at_op": kill_at,
        "torn_bytes_dropped": int(torn_dropped),
        "applies": engine_a.applies,
        "compactions": engine_a.compactions,
        "digest": engine_a.digest,
        "bit_identical": bit_identical,
        "resume_verified": resume_verified,
        "compaction_crossed": engine_a.compactions >= 1,
        "torn_tail_repaired": bool(torn_dropped > 0),
    }


def run_ingest_drill(
    seed: int = 0,
    *,
    events: int = 160,
    chaos: bool = True,
    workdir: str | None = None,
) -> dict:
    """Run one audited ingestion drill; returns a JSON-able report.

    ``events`` sizes the stream leg's mixed workload (ratings streamed
    in + ranking requests served).  ``chaos=False`` is the smoke tier:
    same stream, no fault plan.  The kill-replay leg always runs.
    """
    if events < 10:
        raise ValueError("events must be >= 10")
    if workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run_ingest_drill(seed, events=events, chaos=chaos, workdir=tmp)

    m, n, f = 64, 48, 8
    train, popularity = synthetic_workload(seed, m=m, n=n, nnz=1200)
    model_path = os.path.join(workdir, "model.npz")
    train_and_save(model_path, train, seed, f)

    ingest_cfg = IngestConfig(shards=4, compact_every=3, segment_records=64)

    plan = FaultPlan(seed=seed, **INGEST_DRILL_RATES) if chaos else None
    engine = ServingEngine(
        model_path,
        config=ServingConfig(queue_capacity=32, max_batch=8, budget_ticks=10),
        popularity=popularity,
        faults=plan,
        index_config=IndexConfig(seed=seed),
    )
    store = engine.store
    x_before = store.x.copy()
    theta_before = store.theta.copy()

    # -- leg 1: kill-replay bit-identity (pure ingest, no serving) ---------
    replay = _kill_replay_leg(
        workdir, seed, x_before, theta_before, train, ingest_cfg
    )

    # -- leg 2: live stream against the serving engine ---------------------
    ingest = IngestEngine(
        x_before,
        theta_before,
        train,
        config=ingest_cfg,
        directory=os.path.join(workdir, "stream-live"),
    )

    def publish() -> None:
        """Fold pending ratings in and install the rows into serving."""
        tick = engine.tick_now
        result = ingest.apply(health=engine.health, tick=tick)
        if result.noop:
            return
        store.apply_delta(
            users=result.users,
            user_rows=result.user_rows,
            items=result.items,
            item_rows=result.item_rows,
            seq=result.seq,
            health=engine.health,
            tick=tick,
        )

    def on_ingest_fault(kind: str, tick: int) -> None:
        # The engine has already recorded the firing (record-even-if-
        # noop accounting); here we arm the matching failure in the
        # ingest path.
        if kind == "fault.wal-torn-write":
            ingest.tear_next_append = True
        elif kind == "fault.fold-in-nan":
            ingest.poison_next_foldin = True
        else:  # fault.delta-apply-during-traffic
            publish()

    engine.on_ingest_fault = on_ingest_fault

    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    submitted = 0
    streamed = 0
    for _ in range(events):
        roll = rng.random()
        if roll < 0.45:
            ingest.ingest(
                int(rng.integers(0, m)),
                int(rng.integers(0, n)),
                float(np.float32(rng.uniform(1.0, 5.0))),
                health=engine.health,
                tick=engine.tick_now,
            )
            streamed += 1
        else:
            engine.submit(int(rng.integers(0, m)), int(rng.integers(1, 9)))
            submitted += 1
        # Read-your-writes policy: anything acked is folded in before a
        # tick that could score a queued request.
        if ingest.pending_count and len(engine.queue):
            publish()
        engine.tick()
    publish()
    engine.run_until_drained()
    ticks = engine.tick_now

    fields, audit_checks = audit_serving(engine.health, plan, ticks)
    ryw_violations = engine.health.read_your_writes_audit()

    clean_users = np.setdiff1d(
        np.arange(m), np.fromiter(ingest.solved_users, dtype=np.int64, count=len(ingest.solved_users))
    )
    clean_items = np.setdiff1d(
        np.arange(n), np.fromiter(ingest.solved_items, dtype=np.int64, count=len(ingest.solved_items))
    )
    clean_rows_identical = bool(
        ingest.x[clean_users].tobytes() == x_before[clean_users].tobytes()
        and ingest.theta[clean_items].tobytes() == theta_before[clean_items].tobytes()
    )
    serving_matches_ingest = bool(
        store.x.tobytes() == ingest.x.tobytes()
        and store.theta.tobytes() == ingest.theta.tobytes()
    )

    checks = {
        "replay_bit_identical": replay["bit_identical"],
        "replay_resume_verified": replay["resume_verified"],
        "replay_compaction_crossed": replay["compaction_crossed"],
        "replay_torn_tail_repaired": replay["torn_tail_repaired"],
        **audit_checks,
        "read_your_writes": not ryw_violations,
        "clean_rows_bit_identical": clean_rows_identical,
        "serving_matches_ingest": serving_matches_ingest,
        "deltas_published": store.deltas_applied >= 1,
        "index_current": bool(
            store.index is not None and store.index_version == store.version
        ),
    }
    report = {
        "schema": "repro.ingest-drill/v1",
        "mode": "chaos" if chaos else "smoke",
        "seed": seed,
        "events": events,
        "streamed": streamed,
        "requests": submitted,
        "ticks": ticks,
        **fields,
        "read_your_writes_violations": ryw_violations,
        "kill_replay": replay,
        "ingest": ingest.stats(),
        "engine": engine.stats(),
        "deltas_published": store.deltas_applied,
        "checks": checks,
        "health": engine.health.as_dict(),
    }
    report["ok"] = bool(all(checks.values()))
    ingest.close()
    return report
