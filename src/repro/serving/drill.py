"""Serving chaos drill: prove availability under injected faults.

``run_serving_drill`` is the engine behind ``repro serve`` and CI's
serve-smoke job.  One invocation:

1. trains two tiny ALS models on a synthetic workload and saves them as
   persistence-v2 artifacts (plus a deliberately corrupted copy of the
   first — a real file with a flipped byte, so the checksum layer is
   what catches it);
2. replays a seeded request stream against a :class:`ServingEngine`
   carrying a :class:`~repro.resilience.faults.FaultPlan`
   (backend stalls, hot reloads mid-traffic, corrupt-artifact reloads,
   NaN score lanes);
3. audits the run against the ISSUE's acceptance bar:

   * the :class:`~repro.serving.health.ServingHealth` multiset
     accounting balances — no request is lost;
   * availability (answered + degraded) ≥ 99 % of admitted;
   * every degraded response is attributed to a ladder rung;
   * every planned fault appears in the log, and nothing unplanned;
   * a no-op hot reload leaves scoring **bit-equivalent**;
   * with the retrieval index active (the default): the index was
     built at install time, measured recall@10 at the serving probe
     count clears the calibrated floor, and — chaos tier only — an
     invalidated index degrades to the distinct ``brute-force`` rung
     (exact answers, attributed) rather than losing requests.

The returned report is plain JSON-able data with an overall ``ok``
flag, mirroring :func:`repro.resilience.chaos.run_chaos`, so CI can
archive it and fail on ``ok == False``.

The module is also the drill kit the other serving-plane harnesses
share (:mod:`repro.streaming.drill`, VF109, VF111): the synthetic
workload and its artifacts (:func:`synthetic_workload`,
:func:`train_and_save`, :func:`corrupt_copy`), the seeded traffic loop
(:func:`drive_stream`), the terminal map (:func:`terminals_of`) and the
shared audit (:func:`audit_serving`).

Imported lazily (by the CLI / tests) — it pulls in the trainers.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import Counter

import numpy as np

from ..core.als import ALSModel
from ..core.config import ALSConfig, CGConfig, Precision, SolverKind
from ..data.sparse import RatingMatrix
from ..persistence import save_model
from ..resilience.faults import FaultPlan, account, expected_serving_faults
from .batcher import MicroBatcher
from .engine import ServingConfig, ServingEngine
from .fleet import FleetConfig, FleetEngine
from .health import DEGRADE_RUNGS, TERMINAL_KINDS, ServingHealth
from .index import IndexConfig, recall_floor
from .queue import Request

__all__ = [
    "AVAILABILITY_FLOOR",
    "DRILL_RATES",
    "FLEET_DRILL_RATES",
    "audit_serving",
    "corrupt_copy",
    "drive_stream",
    "run_fleet_drill",
    "run_serving_drill",
    "synthetic_workload",
    "terminals_of",
    "train_and_save",
]

#: Availability floor from the ISSUE: (answered + degraded) / admitted.
AVAILABILITY_FLOOR = 0.99

#: Users, items and factors of the drills' synthetic workload.
_M, _N, _F = 64, 48, 8

#: Default injection rates for the chaos drill (per engine tick).
DRILL_RATES = {
    "stall_rate": 0.08,
    "reload_rate": 0.03,
    "corrupt_rate": 0.03,
    "score_nan_rate": 0.06,
}

#: Default injection rates for the fleet chaos drill: the fleet-scoped
#: kinds (worker kill mid-batch, single-worker rolling reload, heartbeat
#: stall) on top of a lighter helping of the shared serving kinds, so
#: worker supervision and the degradation ladder are drilled together.
FLEET_DRILL_RATES = {
    "stall_rate": 0.04,
    "reload_rate": 0.02,
    "corrupt_rate": 0.02,
    "score_nan_rate": 0.04,
    "worker_kill_rate": 0.08,
    "worker_reload_rate": 0.04,
    "heartbeat_stall_rate": 0.04,
}


def synthetic_workload(
    seed: int, m: int, n: int, nnz: int
) -> tuple[RatingMatrix, np.ndarray]:
    """A tiny random rating matrix plus its per-item popularity counts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    users = rng.integers(0, m, size=nnz)
    items = rng.integers(0, n, size=nnz)
    ratings = rng.uniform(1.0, 5.0, size=nnz).astype(np.float32)
    matrix = RatingMatrix.from_coo(users, items, ratings, m=m, n=n)
    popularity = np.bincount(items, minlength=n).astype(np.float64)
    return matrix, popularity


def train_and_save(path: str, train: RatingMatrix, seed: int, f: int) -> None:
    """Fit a small FP32 ALS model and save it as a persistence-v2 artifact."""
    cfg = ALSConfig(
        f=f,
        solver=SolverKind.CG,
        precision=Precision.FP32,
        cg=CGConfig(max_iters=4),
        seed=seed,
    )
    model = ALSModel(cfg)
    model.fit(train, epochs=2)
    save_model(path, model)


def corrupt_copy(src: str, dst: str) -> None:
    """A byte-flipped copy of ``src`` — caught by checksum verification."""
    with open(src, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0xFF
    with open(dst, "wb") as fh:
        fh.write(bytes(blob))


def drive_stream(
    engine: ServingEngine,
    rng: np.random.Generator,
    requests: int,
    num_users: int,
    max_arrivals: int,
    k_hi: int,
) -> None:
    """Submit a seeded request stream, ticking the engine as traffic arrives.

    Each tick admits ``0..max_arrivals`` requests for uniform users with
    ``k`` in ``[1, k_hi)``; the engine is then drained.
    """
    submitted = 0
    while submitted < requests:
        arrivals = min(int(rng.integers(0, max_arrivals + 1)), requests - submitted)
        for _ in range(arrivals):
            engine.submit(int(rng.integers(0, num_users)), int(rng.integers(1, k_hi)))
            submitted += 1
        engine.tick()
    engine.run_until_drained()


def terminals_of(engine: ServingEngine) -> dict[int, str]:
    """request_id → terminal kind (the audit guarantees uniqueness)."""
    return {
        e.request_id: e.kind
        for e in engine.health.events
        if e.kind in TERMINAL_KINDS
    }


def audit_serving(
    health: ServingHealth, plan: FaultPlan | None, ticks: int
) -> tuple[dict, dict]:
    """The audit every serving-plane drill runs; ``(report fields, checks)``.

    Request accounting, fault accounting against ``plan`` over
    ``ticks`` (a fault-free run expects none), availability against
    :data:`AVAILABILITY_FLOOR`, and rung attribution of every degraded
    response.
    """
    violations = health.audit()
    expected = expected_serving_faults(plan, ticks) if plan is not None else []
    missing, extra = account(expected, health.fault_events())
    availability = health.availability()
    rungs = dict(
        Counter(e.rung for e in health.events if e.kind == "request.degraded")
    )
    fields = {
        "fault_plan": plan.as_dict() if plan is not None else None,
        "expected_faults": len(expected),
        "expected_by_kind": dict(Counter(kind for kind, _ in expected)),
        "missing_faults": [list(site) for site in missing],
        "unexpected_faults": [list(site) for site in extra],
        "accounting_violations": violations,
        "availability": float(availability),
        "availability_floor": AVAILABILITY_FLOOR,
        "degraded_by_rung": rungs,
    }
    checks = {
        "accounting_balanced": not violations,
        "faults_accounted": not missing and not extra,
        "faults_injected": len(expected) > 0 if plan is not None else True,
        "availability_met": bool(availability >= AVAILABILITY_FLOOR),
        "degraded_attributed": all(r in DEGRADE_RUNGS for r in rungs),
    }
    return fields, checks


def _drill_artifacts(workdir: str, seed: int) -> tuple[np.ndarray, str, str, str]:
    """The serve and fleet drills' workload: popularity, models A and B,
    and a corrupt copy of A (a real file with a flipped byte, so the
    checksum layer is what catches it)."""
    train, popularity = synthetic_workload(seed, m=_M, n=_N, nnz=1200)
    model_a, model_b, corrupt = (
        os.path.join(workdir, f"model-{tag}.npz") for tag in ("a", "b", "corrupt")
    )
    train_and_save(model_a, train, seed, _F)
    train_and_save(model_b, train, seed + 1, _F)
    corrupt_copy(model_a, corrupt)
    return popularity, model_a, model_b, corrupt


def _drill_engine(
    cls, artifacts: tuple, seed: int, *, index: bool, nprobe: int | None, **kwargs
):
    """An engine of type ``cls`` serving model A, with model B and the
    corrupt copy as its chaos reload targets."""
    popularity, model_a, model_b, corrupt = artifacts
    engine = cls(
        model_a,
        config=ServingConfig(queue_capacity=32, max_batch=8, budget_ticks=10),
        popularity=popularity,
        index_config=IndexConfig(seed=seed) if index else None,
        nprobe=nprobe,
        **kwargs,
    )
    engine.chaos_reload_path = model_b
    engine.chaos_corrupt_path = corrupt
    if index and nprobe is None:
        # ceil(ncells/2): the smallest probe fraction with a
        # non-vacuous calibrated floor — sqrt-sized quantizers on a
        # 48-item catalogue make the derived default probe 1 cell.
        engine.nprobe = -(-engine.store.index.ncells // 2)
    return engine


def _drive(engine: ServingEngine, seed: int, requests: int) -> None:
    """The serve and fleet drills' request stream (seeded per drill seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    drive_stream(engine, rng, requests, _M, max_arrivals=2, k_hi=9)


def _probe_recall(engine: ServingEngine, k: int) -> float:
    """Mean recall@k of the engine's probed path vs brute force.

    Scores every known user once brute-force and once through the
    installed index at the engine's effective probe count, through a
    *separate* batcher so the measurement never touches the serving
    arena or the engine's health accounting.
    """
    store = engine.store
    x, theta = store.x, store.theta
    requests = [
        Request(
            request_id=i,
            user=i,
            k=k,
            submitted_tick=0,
            deadline_tick=1 << 30,
        )
        for i in range(x.shape[0])
    ]
    batcher = MicroBatcher()
    reference, _ = batcher.score_batch(x, theta, requests)
    probed, _ = batcher.score_batch(
        x, theta, requests, index=store.index, nprobe=engine.nprobe
    )
    batcher.workspace.release()
    recalls = [
        len({i for i, _ in got} & {i for i, _ in want}) / len(want)
        for got, want in zip(probed, reference)
    ]
    return float(np.mean(recalls))


def run_serving_drill(
    seed: int = 0,
    *,
    requests: int = 200,
    chaos: bool = True,
    index: bool = True,
    nprobe: int | None = None,
    workdir: str | None = None,
) -> dict:
    """Run one audited serving drill; returns a JSON-able report.

    ``chaos=False`` is the smoke tier: same stream, no fault plan —
    every request must come back fully answered.  With ``index`` (the
    default) the engine serves through the IVF retrieval index: the
    drill additionally gates measured recall@10 against the calibrated
    :func:`~repro.serving.index.recall_floor` at the effective probe
    count, and the chaos tier drops the index mid-run to prove the
    distinct ``brute-force`` ladder rung answers (exactly, attributed).
    ``nprobe`` overrides the probe count; ``None`` serves
    ``ceil(ncells/2)`` — on the drill's tiny catalogue the derived
    default probes too small a fraction to gate recall meaningfully.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    if nprobe is not None and nprobe < 1:
        raise ValueError("nprobe must be >= 1 (or None for the default)")
    if workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run_serving_drill(
                seed,
                requests=requests,
                chaos=chaos,
                index=index,
                nprobe=nprobe,
                workdir=tmp,
            )

    plan = FaultPlan(seed=seed, **DRILL_RATES) if chaos else None
    engine = _drill_engine(
        ServingEngine,
        _drill_artifacts(workdir, seed),
        seed,
        index=index,
        nprobe=nprobe,
        faults=plan,
    )
    _drive(engine, seed, requests)
    ticks = engine.tick_now

    # No-op hot reload must be score-bit-equivalent.
    probe_user = 0
    before = engine.probe_scores(probe_user)
    noop = engine.reload(engine.store.path)
    after = engine.probe_scores(probe_user)
    noop_bit_equal = bool(before.tobytes() == after.tobytes())

    # Retrieval gate: measured recall at the serving operating point
    # must clear the calibrated distribution-free floor.
    retrieval: dict | None = None
    brute_exercised = 0
    if index:
        ncells = engine.store.index.ncells
        eff_nprobe = min(engine.nprobe, ncells)
        floor = recall_floor(eff_nprobe, ncells)
        recall = _probe_recall(engine, k=10)
        retrieval = {
            "enabled": True,
            "ncells": ncells,
            "nprobe": eff_nprobe,
            "k": 10,
            "recall_at_k": recall,
            "recall_floor": floor,
            "index_builds": engine.store.index_builds,
            "index_routed": engine.batcher.index_routed,
            "brute_routed": engine.batcher.brute_routed,
        }
    if index and chaos:
        # Drop the index mid-service and prove the distinct brute-force
        # rung answers (exactly, and attributed).  The fault plan is
        # detached first — its expectation was already pinned at
        # ``ticks`` — and the breaker gets its worst-case cooldown so
        # the exercise measures the rung, not an open breaker.
        engine.faults = None
        for _ in range(engine.breaker.config.max_cooldown_ticks + 1):
            engine.tick()
        engine.store.invalidate_index()
        brute_exercised = 8
        for i in range(brute_exercised):
            engine.submit(i, 5)
            engine.tick()
        engine.run_until_drained()

    fields, checks = audit_serving(engine.health, plan, ticks)
    checks["noop_reload"] = bool(noop.status == "noop" and noop_bit_equal)
    if index:
        checks["index_built"] = engine.store.index_builds >= 1
        checks["recall_met"] = bool(
            retrieval["recall_at_k"] >= retrieval["recall_floor"]
        )
        if chaos:
            checks["brute_force_rung"] = (
                fields["degraded_by_rung"].get("brute-force", 0) >= brute_exercised
            )
    report = {
        "mode": "chaos" if chaos else "smoke",
        "seed": seed,
        "requests": requests,
        "ticks": ticks,
        **fields,
        "noop_reload": {"status": noop.status, "bit_equal": noop_bit_equal},
        "retrieval": retrieval if retrieval is not None else {"enabled": False},
        "event_counts": engine.health.counts(),
        "engine": engine.stats(),
        "checks": checks,
        "health": engine.health.as_dict(),
    }
    report["ok"] = bool(all(checks.values()))
    return report


def _latency_stats(engine: ServingEngine) -> dict:
    """Virtual-tick latency distribution of the served requests.

    Latency is terminal tick minus submission tick for every answered
    or degraded request — deterministic, because both ends live on the
    engine's virtual clock.
    """
    submitted = {
        e.request_id: e.tick
        for e in engine.health.events
        if e.kind == "request.submitted"
    }
    latencies = [
        e.tick - submitted[e.request_id]
        for e in engine.health.events
        if e.kind in ("request.answered", "request.degraded")
        and e.request_id in submitted
    ]
    if not latencies:
        return {"served": 0, "p50_ticks": None, "p99_ticks": None}
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "served": int(arr.size),
        "p50_ticks": float(np.percentile(arr, 50)),
        "p99_ticks": float(np.percentile(arr, 99)),
    }


def run_fleet_drill(
    seed: int = 0,
    *,
    requests: int = 200,
    workers: int = 3,
    chaos: bool = True,
    index: bool = True,
    nprobe: int | None = None,
    workdir: str | None = None,
) -> dict:
    """Chaos-drill the multi-process serving fleet; JSON-able report.

    Two legs, mirroring the ISSUE's acceptance criteria:

    1. **equivalence** (always): the same fault-free request stream is
       served by the single-process :class:`ServingEngine` and by a
       one-worker :class:`~repro.serving.fleet.FleetEngine`; every
       result must be **bit-identical** and every request must reach
       the same terminal kind.  One worker makes the router's partition
       the identity, so batch composition — and hence the GEMM bits —
       match exactly.
    2. **fleet** (*chaos* tier): ``workers`` workers under
       :data:`FLEET_DRILL_RATES` — worker kills mid-batch, rolling
       single-worker reloads, heartbeat stalls, plus the shared serving
       kinds.  Gates: the :class:`~repro.serving.health.ServingHealth`
       accounting stays an exact partition (zero lost or duplicated
       requests, re-routes included), every planned fault is accounted
       tick-exactly, kills and rolling reloads actually fired, and
       availability ≥ 99 %.  ``chaos=False`` runs the same fleet
       fault-free (the smoke tier).

    The report's ``throughput`` block is the sustained-throughput
    observable the bench gates: requests/s over the drive phase, p50 /
    p99 virtual-tick latency, and the deadline-miss rate.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if nprobe is not None and nprobe < 1:
        raise ValueError("nprobe must be >= 1 (or None for the default)")
    if workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run_fleet_drill(
                seed,
                requests=requests,
                workers=workers,
                chaos=chaos,
                index=index,
                nprobe=nprobe,
                workdir=tmp,
            )

    artifacts = _drill_artifacts(workdir, seed)

    def make_engine(cls, **kwargs):
        return _drill_engine(cls, artifacts, seed, index=index, nprobe=nprobe, **kwargs)

    # -- leg 1: fault-free read-equivalence, fleet(1) vs single ------------
    single = make_engine(ServingEngine)
    _drive(single, seed, requests)
    fleet_one = make_engine(
        FleetEngine,
        fleet=FleetConfig(workers=1, heartbeat_timeout=0.05),
    )
    try:
        _drive(fleet_one, seed, requests)
        ids_match = set(single.results) == set(fleet_one.results)
        bit_identical = ids_match and all(
            single.results[rid] == fleet_one.results[rid]
            for rid in single.results
        )
        terminals_match = terminals_of(single) == terminals_of(fleet_one)
        equiv_audits = single.health.audit() + fleet_one.health.audit()
    finally:
        fleet_one.close()
    equivalence = {
        "requests": requests,
        "results_compared": len(single.results),
        "bit_identical": bool(bit_identical),
        "terminals_match": bool(terminals_match),
        "audit_violations": equiv_audits,
    }

    # -- leg 2: the fleet under chaos (or fault-free smoke) ----------------
    plan = FaultPlan(seed=seed, **FLEET_DRILL_RATES) if chaos else None
    fleet_cfg = FleetConfig(
        workers=workers,
        heartbeat_timeout=0.05,
        batch_deadline=10.0,
        max_respawns=64,
        fleet_fault_limit=10_000,  # the drill wants the pool alive throughout
    )
    fleet = make_engine(FleetEngine, faults=plan, fleet=fleet_cfg)
    try:
        t0 = time.perf_counter()
        _drive(fleet, seed, requests)
        elapsed = time.perf_counter() - t0
        ticks = fleet.tick_now
        stats = fleet.stats()
    finally:
        fleet.close()
    health = fleet.health
    fields, audit_checks = audit_serving(health, plan, ticks)
    counts = health.counts()
    latency = _latency_stats(fleet)
    admitted = counts.get("request.admitted", 0)
    deadline_misses = sum(
        1
        for e in health.events
        if e.kind == "request.shed" and e.detail == "deadline"
    )
    throughput = {
        "workers": workers,
        "elapsed_s": float(elapsed),
        "requests_per_s": float(requests / elapsed) if elapsed > 0 else None,
        "ticks": ticks,
        "deadline_misses": deadline_misses,
        "deadline_miss_rate": (
            float(deadline_misses / admitted) if admitted else 0.0
        ),
        **latency,
    }

    expected_by_kind = fields["expected_by_kind"]
    checks = {
        "equivalence_bit_identical": equivalence["bit_identical"],
        "equivalence_terminals_match": equivalence["terminals_match"],
        "equivalence_accounting": not equivalence["audit_violations"],
        **audit_checks,
        "deadline_misses_bounded": throughput["deadline_miss_rate"] <= 0.05,
    }
    if chaos:
        checks["worker_kills_injected"] = (
            expected_by_kind.get("fault.fleet-worker-kill", 0) >= 1
        )
        checks["worker_reloads_injected"] = (
            expected_by_kind.get("fault.fleet-worker-reload", 0) >= 1
        )
        checks["heartbeat_stalls_injected"] = (
            expected_by_kind.get("fault.fleet-heartbeat-stall", 0) >= 1
        )
        checks["workers_died"] = counts.get("worker.died", 0) >= 1
        checks["workers_respawned"] = counts.get("worker.respawned", 0) >= 1
    else:
        checks["all_answered"] = counts.get("request.answered", 0) == admitted

    report = {
        "mode": "fleet-chaos" if chaos else "fleet-smoke",
        "seed": seed,
        "requests": requests,
        "workers": workers,
        "ticks": ticks,
        **fields,
        "rerouted": counts.get("request.rerouted", 0),
        "equivalence": equivalence,
        "throughput": throughput,
        "event_counts": counts,
        "engine": stats,
        "checks": checks,
        "health": health.as_dict(),
    }
    report["ok"] = bool(all(checks.values()))
    return report
