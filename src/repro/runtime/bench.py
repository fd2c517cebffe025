"""The ``repro bench`` harness: measured speedups, gated in CI.

Times the two ALS hot spots and a full epoch on a synthetic
Netflix-*shape* surrogate (Zipf-popular items, planted low-rank signal —
scaled down so CI finishes in seconds), once along the **legacy** path
(the seed implementation: fresh scratch per chunk, dense CG sweeps, no
sharding) and once along the **optimized** path (the plan training runs,
``RuntimePlan()``, through :class:`~repro.runtime.executor.ShardExecutor`).
The legacy leg always runs the oracle kernels (``reduceat`` +
``reference``); the optimized leg runs ``grouped`` + ``fused``, which
reorder float sums, so the report asserts *objective equivalence* —
both epochs reach the same training loss — which is the paper's
approximate-computing contract (truncated CG iterates are chaotic in
their low bits by design, the converged loss is what must agree).

The emitted ``BENCH_runtime.json`` (schema ``repro.bench/v1``) records
*speedup ratios*, not absolute seconds: ratios of two legs measured in
the same process on the same machine are stable across hardware, which
is what lets a committed baseline gate CI runners of unknown speed.  The
gate passes when each measured speedup stays within ``tolerance``
(default 25%) of its baseline and the arena reports **zero** steady-state
allocations in the hot path.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..core.cg import cg_solve_batched
from ..core.config import CGConfig, Precision
from ..core.hermitian import hermitian_and_bias
from ..data.sparse import RatingMatrix
from ..data.synthetic import SyntheticConfig, generate_ratings
from .arena import Workspace
from .executor import ShardExecutor
from .plan import ORACLE_PLAN, RuntimePlan

__all__ = [
    "BenchConfig",
    "QUICK_BENCH",
    "FULL_BENCH",
    "run_bench",
    "compare_against",
    "write_report",
]

SCHEMA = "repro.bench/v1"
BASELINE_SCHEMA = "repro.bench-baseline/v1"


@dataclass(frozen=True)
class BenchConfig:
    """Shape and repetition knobs of one bench run.

    The ``catalog_*``/``retrieval_*`` fields shape the serving-side
    retrieval leg: a clustered item catalogue
    (:func:`repro.serving.index.clustered_catalog`) scored brute-force
    versus through the IVF index at its default ``nprobe``.  The
    catalogue is deliberately much larger than the training shape —
    sublinear retrieval only matters (and only wins) at catalogue
    scale.
    """

    m: int = 10_000
    n: int = 1_500
    nnz: int = 200_000
    f: int = 64
    repeats: int = 3  # timed repetitions per leg; min is reported
    cg_iters: int = 6
    lam: float = 0.05
    seed: int = 0
    catalog_items: int = 262_144
    catalog_clusters: int = 64
    retrieval_users: int = 4_096
    retrieval_requests: int = 256
    retrieval_batch: int = 32
    retrieval_k: int = 10
    fleet_users: int = 2_048
    fleet_items: int = 16_384
    fleet_requests: int = 512
    fleet_batch: int = 64
    fleet_workers: int = 2
    fleet_k: int = 10
    ingest_delta_ratings: int = 64
    ingest_shards: int = 4

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.nnz, self.f) < 1:
            raise ValueError("bench shape values must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.cg_iters < 1:
            raise ValueError("cg_iters must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if min(
            self.catalog_items,
            self.catalog_clusters,
            self.retrieval_users,
            self.retrieval_requests,
            self.retrieval_batch,
            self.retrieval_k,
        ) < 1:
            raise ValueError("retrieval shape values must be positive")
        if min(
            self.fleet_users,
            self.fleet_items,
            self.fleet_requests,
            self.fleet_batch,
            self.fleet_workers,
            self.fleet_k,
        ) < 1:
            raise ValueError("fleet shape values must be positive")
        if min(self.ingest_delta_ratings, self.ingest_shards) < 1:
            raise ValueError("ingest shape values must be positive")

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "nnz": self.nnz,
            "f": self.f,
            "repeats": self.repeats,
            "cg_iters": self.cg_iters,
            "lam": self.lam,
            "seed": self.seed,
            "catalog_items": self.catalog_items,
            "catalog_clusters": self.catalog_clusters,
            "retrieval_users": self.retrieval_users,
            "retrieval_requests": self.retrieval_requests,
            "retrieval_batch": self.retrieval_batch,
            "retrieval_k": self.retrieval_k,
            "fleet_users": self.fleet_users,
            "fleet_items": self.fleet_items,
            "fleet_requests": self.fleet_requests,
            "fleet_batch": self.fleet_batch,
            "fleet_workers": self.fleet_workers,
            "fleet_k": self.fleet_k,
            "ingest_delta_ratings": self.ingest_delta_ratings,
            "ingest_shards": self.ingest_shards,
        }


#: The CI perf-smoke shape: finishes in a few seconds yet still large
#: enough that the chunk/kernel choice dominates interpreter overhead.
#: The retrieval catalogue stays at full size — the ISSUE's ≥ 5x floor
#: is stated at ``n_items ≥ 100K`` and the probed path's fixed
#: per-request overhead would dominate a scaled-down catalogue.
QUICK_BENCH = BenchConfig(m=3_000, n=600, nnz=60_000, f=32, repeats=2)

#: The default local shape (Netflix-like row/column skew, scaled down).
FULL_BENCH = BenchConfig()


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock over ``repeats`` calls (rejects scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(
    cfg: BenchConfig = FULL_BENCH, *, workers: int | None = None
) -> dict:
    """Measure legacy vs optimized hot paths; return the report payload.

    ``workers`` picks the optimized leg's plan: ``None`` (default) is
    ``RuntimePlan()``, the in-process, one-shard-per-core layout training
    runs; ``0`` the one-shard serial plan; ``N >= 1`` the fork pool with
    ``N`` workers and shards.
    """
    if workers is None:
        plan = RuntimePlan()
    elif workers == 0:
        plan = RuntimePlan(shards=1)
    else:
        plan = RuntimePlan(shards=workers, workers=workers)
    data = generate_ratings(
        SyntheticConfig(m=cfg.m, n=cfg.n, nnz=cfg.nnz, seed=cfg.seed)
    )
    data_t = data.transpose()
    rng = np.random.default_rng(cfg.seed)
    theta = rng.normal(0, 0.1, (cfg.n, cfg.f)).astype(np.float32)
    x_warm = rng.normal(0, 0.1, (cfg.m, cfg.f)).astype(np.float32)
    cg_cfg = CGConfig(max_iters=cfg.cg_iters, tol=1e-5)
    executor = ShardExecutor(plan)
    # The seed kernels on the seed layout (one shard, fresh scratch per
    # chunk, dense CG sweeps); VF107 pins it bit-identical to the seed
    # pipeline.
    legacy = ShardExecutor(
        replace(ORACLE_PLAN, shards=1, arena=False, compact_cg=False)
    )

    # -- hermitian: legacy (seed defaults) vs the plan's kernel/chunk/arena.
    # The micro legs run whole-matrix batches on arenas of their own, so
    # the arena report below is the epoch executor's alone.
    legacy_herm = _best_of(
        cfg.repeats, lambda: hermitian_and_bias(data, theta, cfg.lam)
    )
    herm_ws = Workspace() if plan.arena else None
    A_opt = np.empty((cfg.m, cfg.f, cfg.f), np.float32)
    b_opt = np.empty((cfg.m, cfg.f), np.float32)

    def opt_hermitian() -> None:
        hermitian_and_bias(
            data, theta, cfg.lam,
            chunk_elems=plan.chunk_elems, method=plan.method,
            workspace=herm_ws, out=(A_opt, b_opt),
        )

    opt_hermitian()  # warm the arena
    opt_herm = _best_of(cfg.repeats, opt_hermitian)

    # -- CG: legacy (reference kernels, dense sweeps, fresh scratch) vs the
    # plan's solver (its backend + compaction on the arena) ---------------
    A_ref, b_ref = hermitian_and_bias(data, theta, cfg.lam)
    legacy_cg = _best_of(
        cfg.repeats,
        lambda: cg_solve_batched(
            A_ref, b_ref, x0=x_warm, config=cg_cfg,
            precision=Precision.FP16, compact=False, backend="reference",
        ),
    )
    cg_out = np.empty_like(b_ref)
    cg_ws = Workspace() if plan.arena else None
    opt_cg = _best_of(
        cfg.repeats,
        lambda: cg_solve_batched(
            A_ref, b_ref, x0=x_warm, config=cg_cfg,
            precision=Precision.FP16, workspace=cg_ws, out=cg_out,
            compact=plan.compact_cg, backend=plan.cg_backend,
        ),
    )

    # -- end-to-end epoch: both half-steps ---------------------------------
    def epoch(
        runner: ShardExecutor, precision: Precision = Precision.FP16
    ) -> np.ndarray:
        x = runner.half_step(
            data, theta, x_warm, lam=cfg.lam, cg_config=cg_cfg,
            precision=precision, key="x",
        ).factors
        return runner.half_step(
            data_t, x, theta, lam=cfg.lam, cg_config=cg_cfg,
            precision=precision, key="theta",
        ).factors

    # Numerics gate.  Truncated CG runs a fixed handful of iterations, so
    # its iterates are chaotic in their low bits: the grouped kernel's
    # reordered sums (~1e-7 relative on A) can steer individual
    # ill-conditioned systems onto visibly different — equally valid —
    # Krylov trajectories, so pointwise factor comparison is meaningless
    # here.  The contract is the paper's approximate-computing one: both
    # epochs reach the same training objective.  Probed at FP32 so the
    # FP16 quantizer's rounding steps do not add their own discontinuity.
    rows_per_nnz = np.repeat(np.arange(data.m), np.diff(data.row_ptr))

    def objective(x_fac: np.ndarray, theta_fac: np.ndarray) -> float:
        preds = np.einsum(
            "kf,kf->k",
            x_fac[rows_per_nnz].astype(np.float64),
            theta_fac[data.col_idx].astype(np.float64),
        )
        err = data.row_val.astype(np.float64) - preds
        return float(err @ err)

    x_probe = cg_solve_batched(
        A_ref, b_ref, x0=x_warm, config=cg_cfg, precision=Precision.FP32,
        compact=False,
    ).x
    theta_legacy = epoch(legacy, Precision.FP32).copy()
    theta_opt = epoch(executor, Precision.FP32).copy()
    sse_legacy = objective(x_probe, theta_legacy)
    sse_opt = objective(x_probe, theta_opt)
    equivalent = bool(abs(sse_opt - sse_legacy) <= 0.01 * sse_legacy + 1e-12)
    legacy_epoch_s = _best_of(cfg.repeats, lambda: epoch(legacy))
    opt_epoch_s = _best_of(cfg.repeats, lambda: epoch(executor))

    # -- steady-state allocation probe; scratch held by every lane --------
    steady_allocs = -1
    if executor.workspace is not None:
        executor.workspace.reset_counters()
        epoch(executor)
        steady_allocs = executor.workspace.allocations
    resident = sum(ws.resident_bytes for ws in executor.arenas)
    peak_resident = sum(ws.peak_resident_bytes for ws in executor.arenas)
    executor.close()
    legacy.close()

    retrieval, retrieval_allocs = _bench_retrieval(cfg)
    fleet = _bench_fleet(cfg)
    ingest = _bench_ingest(cfg, data, data_t)

    def section(legacy: float, optimized: float) -> dict:
        return {
            "legacy_seconds": legacy,
            "optimized_seconds": optimized,
            "speedup": legacy / max(optimized, 1e-12),
        }

    return {
        "schema": SCHEMA,
        "config": cfg.as_dict(),
        "plan": plan.as_dict(),
        "sections": {
            "hermitian": section(legacy_herm, opt_herm),
            "cg": section(legacy_cg, opt_cg),
            "epoch": section(legacy_epoch_s, opt_epoch_s),
            "retrieval": retrieval,
            "fleet": fleet,
            "ingest": ingest,
        },
        "numerics": {
            "equivalent": equivalent,
            "sse_legacy": sse_legacy,
            "sse_optimized": sse_opt,
        },
        "arena": {
            "steady_state_allocations": steady_allocs,
            "resident_bytes": resident,
            "peak_resident_bytes": peak_resident,
            "retrieval_steady_state_allocations": retrieval_allocs,
        },
    }


def _bench_retrieval(cfg: BenchConfig) -> tuple[dict, int]:
    """Time brute-force vs probed top-k serving; return (section, allocs).

    Both legs run the same request stream through
    :class:`~repro.serving.batcher.MicroBatcher` (the production scoring
    path) over a clustered catalogue at the index's **default** nprobe —
    the same operating point the committed baseline floors gate
    (speedup *and* recall@k).  The second return value is the probed
    leg's steady-state arena allocation count (0 once warm).
    """
    # Serving sits above the runtime in the layering; import lazily so
    # the runtime package stays importable on its own.
    from ..serving.batcher import MicroBatcher
    from ..serving.index import IndexConfig, build_index, clustered_catalog
    from ..serving.queue import Request

    x, theta = clustered_catalog(
        cfg.retrieval_users,
        cfg.catalog_items,
        cfg.f,
        clusters=cfg.catalog_clusters,
        seed=cfg.seed,
    )
    build_start = time.perf_counter()
    index = build_index(theta, IndexConfig(seed=cfg.seed))
    build_seconds = time.perf_counter() - build_start

    rng = np.random.default_rng(cfg.seed + 1)
    requests = [
        Request(
            request_id=i,
            user=int(rng.integers(cfg.retrieval_users)),
            k=cfg.retrieval_k,
            submitted_tick=0,
            deadline_tick=1 << 30,
        )
        for i in range(cfg.retrieval_requests)
    ]
    batches = [
        requests[i : i + cfg.retrieval_batch]
        for i in range(0, len(requests), cfg.retrieval_batch)
    ]

    def stream(batcher: MicroBatcher, use_index: bool) -> list:
        out: list = []
        for batch in batches:
            results, _bad = batcher.score_batch(
                x, theta, batch, index=index if use_index else None
            )
            out.extend(results)
        return out

    brute_batcher = MicroBatcher(Workspace())
    probed_batcher = MicroBatcher(Workspace())
    brute_results = stream(brute_batcher, False)  # warm + recall reference
    probed_results = stream(probed_batcher, True)
    legacy_seconds = _best_of(cfg.repeats, lambda: stream(brute_batcher, False))
    optimized_seconds = _best_of(
        cfg.repeats, lambda: stream(probed_batcher, True)
    )

    k = cfg.retrieval_k
    recall = float(
        np.mean(
            [
                len({i for i, _ in ref} & {i for i, _ in got}) / k
                for ref, got in zip(brute_results, probed_results)
            ]
        )
    )
    scored = probed_batcher.items_scored / max(
        probed_batcher.requests_scored * cfg.catalog_items, 1
    )

    probed_batcher.workspace.reset_counters()
    stream(probed_batcher, True)
    retrieval_allocs = probed_batcher.workspace.allocations
    brute_batcher.workspace.release()
    probed_batcher.workspace.release()

    return (
        {
            "legacy_seconds": legacy_seconds,
            "optimized_seconds": optimized_seconds,
            "speedup": legacy_seconds / max(optimized_seconds, 1e-12),
            "recall_at_k": recall,
            "k": k,
            "items": cfg.catalog_items,
            "ncells": index.ncells,
            "nprobe": index.nprobe,
            "build_seconds": build_seconds,
            "scored_fraction": float(scored),
        },
        retrieval_allocs,
    )


def _bench_fleet(cfg: BenchConfig) -> dict:
    """Sustained serving throughput: single engine vs the worker fleet.

    Both legs replay the identical arrival-limited request stream
    (``fleet_batch`` submissions per tick) against the same saved factor
    model, end to end through the production engines — admission queue,
    micro-batcher, health accounting.  The *legacy* leg is the
    single-process :class:`~repro.serving.engine.ServingEngine`; the
    *optimized* leg is a fault-free
    :class:`~repro.serving.fleet.FleetEngine` with ``fleet_workers``
    scoring processes.  A fresh engine is built per repetition so cache
    state and process spawn cost never leak into the timed drive.

    Alongside the machine-independent speedup ratio the section reports
    the throughput observables the baseline hard-gates: the
    deadline-miss rate (deterministic — request deadlines live on the
    virtual tick clock) and the p99 virtual-tick latency.
    """
    # Serving sits above the runtime in the layering; import lazily so
    # the runtime package stays importable on its own.
    import os
    import tempfile

    from ..core.als import ALSModel
    from ..core.config import ALSConfig
    from ..persistence import save_model
    from ..serving.engine import ServingConfig, ServingEngine
    from ..serving.fleet import FleetConfig, FleetEngine

    rng = np.random.default_rng(cfg.seed + 5)
    users = rng.integers(0, cfg.fleet_users, size=cfg.fleet_requests)

    def drive(engine) -> float:
        submitted = 0
        start = time.perf_counter()
        while submitted < cfg.fleet_requests:
            arrivals = min(cfg.fleet_batch, cfg.fleet_requests - submitted)
            for _ in range(arrivals):
                engine.submit(int(users[submitted]), cfg.fleet_k)
                submitted += 1
            engine.tick()
        engine.run_until_drained()
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        model = ALSModel(ALSConfig(f=cfg.f, seed=cfg.seed))
        model.x_ = rng.standard_normal(
            (cfg.fleet_users, cfg.f)
        ).astype(np.float32)
        model.theta_ = rng.standard_normal(
            (cfg.fleet_items, cfg.f)
        ).astype(np.float32)
        path = os.path.join(tmp, "fleet-model.npz")
        save_model(path, model)
        serving_cfg = ServingConfig(
            queue_capacity=4 * cfg.fleet_batch,
            max_batch=cfg.fleet_batch,
            budget_ticks=8,
        )

        legacy_seconds = float("inf")
        for _ in range(cfg.repeats):
            engine = ServingEngine(path, config=serving_cfg)
            legacy_seconds = min(legacy_seconds, drive(engine))

        optimized_seconds = float("inf")
        health = None
        for _ in range(cfg.repeats):
            fleet_engine = FleetEngine(
                path,
                config=serving_cfg,
                fleet=FleetConfig(
                    workers=cfg.fleet_workers,
                    heartbeat_timeout=1.0,
                ),
            )
            try:
                elapsed = drive(fleet_engine)
            finally:
                fleet_engine.close()
            if elapsed < optimized_seconds:
                optimized_seconds = elapsed
                health = fleet_engine.health

    counts = health.counts()
    admitted = counts.get("request.admitted", 0)
    deadline_misses = sum(
        1
        for e in health.events
        if e.kind == "request.shed" and e.detail == "deadline"
    )
    submitted_ticks = {
        e.request_id: e.tick
        for e in health.events
        if e.kind == "request.submitted"
    }
    latencies = [
        e.tick - submitted_ticks[e.request_id]
        for e in health.events
        if e.kind in ("request.answered", "request.degraded")
    ]
    return {
        "legacy_seconds": legacy_seconds,
        "optimized_seconds": optimized_seconds,
        "speedup": legacy_seconds / max(optimized_seconds, 1e-12),
        "workers": cfg.fleet_workers,
        "requests": cfg.fleet_requests,
        "items": cfg.fleet_items,
        "batch": cfg.fleet_batch,
        "requests_per_s": cfg.fleet_requests / max(optimized_seconds, 1e-12),
        "legacy_requests_per_s": (
            cfg.fleet_requests / max(legacy_seconds, 1e-12)
        ),
        "deadline_misses": deadline_misses,
        "deadline_miss_rate": (
            float(deadline_misses / admitted) if admitted else 0.0
        ),
        "p99_latency_ticks": (
            float(np.percentile(np.asarray(latencies, dtype=np.float64), 99))
            if latencies
            else None
        ),
    }


def _bench_ingest(
    cfg: BenchConfig, data: RatingMatrix, data_t: RatingMatrix
) -> dict:
    """Online fold-in of a streamed delta vs the batch alternative.

    The *legacy* way to absorb new ratings is what the trainers do: a
    full alternating half-step pair over the whole corpus (every user
    row, then every item row).  The *optimized* leg streams
    ``ingest_delta_ratings`` new ratings into an
    :class:`~repro.streaming.IngestEngine` and times one :meth:`apply`
    — fold-in solves for the dirty rows only, plus the durable delta
    checkpoint it writes.  The reported ``foldin_ms`` is the latency
    observable the baseline hard-gates (``foldin_ms_ceiling``): the
    point of online ingestion is that freshness costs milliseconds,
    not an epoch.  ``data``/``data_t`` are the bench's ratings and
    their transpose.
    """
    # Streaming sits above the runtime in the layering; import lazily
    # so the runtime package stays importable on its own.
    import os
    import tempfile

    from ..streaming import IngestConfig, IngestEngine

    rng = np.random.default_rng(cfg.seed + 9)
    theta = rng.normal(0, 0.1, (cfg.n, cfg.f)).astype(np.float32)
    x = rng.normal(0, 0.1, (cfg.m, cfg.f)).astype(np.float32)
    cg_cfg = CGConfig(max_iters=cfg.cg_iters, tol=1e-5)
    deltas = [
        (
            int(rng.integers(0, cfg.m)),
            int(rng.integers(0, cfg.n)),
            float(np.float32(rng.uniform(1.0, 5.0))),
        )
        for _ in range(cfg.ingest_delta_ratings)
    ]

    def full_half_steps() -> None:
        A, b = hermitian_and_bias(data, theta, cfg.lam)
        x_new = cg_solve_batched(A, b, x0=x, config=cg_cfg).x
        A, b = hermitian_and_bias(data_t, x_new, cfg.lam)
        cg_solve_batched(A, b, x0=theta, config=cg_cfg)

    legacy_seconds = _best_of(cfg.repeats, full_half_steps)

    foldin_seconds = float("inf")
    rows_folded = 0
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(cfg.repeats):
            engine = IngestEngine(
                x,
                theta,
                data,
                config=IngestConfig(
                    lam=cfg.lam, shards=cfg.ingest_shards, cg=cg_cfg
                ),
                directory=os.path.join(tmp, f"rep-{rep}"),
            )
            for user, item, rating in deltas:
                engine.ingest(user, item, rating)
            start = time.perf_counter()
            result = engine.apply()
            foldin_seconds = min(foldin_seconds, time.perf_counter() - start)
            rows_folded = int(result.users.size + result.items.size)
            engine.close()

    return {
        "legacy_seconds": legacy_seconds,
        "optimized_seconds": foldin_seconds,
        "speedup": legacy_seconds / max(foldin_seconds, 1e-12),
        "foldin_ms": foldin_seconds * 1e3,
        "delta_ratings": cfg.ingest_delta_ratings,
        "rows_folded": rows_folded,
        "shards": cfg.ingest_shards,
    }


def compare_against(
    result: dict,
    baseline: dict,
    *,
    tolerance: float | None = None,
) -> tuple[bool, list[str]]:
    """Gate ``result`` against a committed baseline of speedup ratios.

    A section regresses when its measured speedup falls below
    ``baseline_speedup · (1 − tolerance)``; a baseline section carrying
    a ``recall_floor`` additionally fails when the measured
    ``recall_at_k`` drops below it, and one carrying a
    ``deadline_miss_ceiling`` fails when the measured
    ``deadline_miss_rate`` exceeds it, and one carrying a
    ``foldin_ms_ceiling`` fails when the measured fold-in latency
    ``foldin_ms`` exceeds it (all hard gates — approximation quality,
    serving deadline conformance and ingestion freshness get no
    tolerance band; the miss rate is deterministic because request
    deadlines live on the virtual tick clock, and the fold-in ceiling
    is set generously above any plausible machine so it only trips on
    a complexity regression, not a slow runner); the arena probe fails
    when any steady-state allocation happened.  Returns (ok, messages)
    where messages describe every check, pass or fail.
    """
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline schema must be {BASELINE_SCHEMA!r}, "
            f"got {baseline.get('schema')!r}"
        )
    tol = baseline.get("tolerance", 0.25) if tolerance is None else tolerance
    if not 0 <= tol < 1:
        raise ValueError("tolerance must be in [0, 1)")
    ok = True
    messages: list[str] = []
    for name, ref in baseline.get("sections", {}).items():
        section = result["sections"].get(name, {})
        measured = section.get("speedup")
        floor = ref["speedup"] * (1 - tol)
        if measured is None:
            ok = False
            messages.append(f"FAIL {name}: section missing from result")
            continue
        verdict = measured >= floor
        ok &= verdict
        messages.append(
            f"{'PASS' if verdict else 'FAIL'} {name}: speedup "
            f"{measured:.2f}x vs baseline {ref['speedup']:.2f}x "
            f"(floor {floor:.2f}x)"
        )
        if "recall_floor" in ref:
            recall = section.get("recall_at_k", -1.0)
            verdict = recall >= ref["recall_floor"]
            ok &= verdict
            messages.append(
                f"{'PASS' if verdict else 'FAIL'} {name}: recall@k "
                f"{recall:.4f} vs floor {ref['recall_floor']:.2f}"
            )
        if "deadline_miss_ceiling" in ref:
            miss_rate = section.get("deadline_miss_rate")
            verdict = (
                miss_rate is not None
                and miss_rate <= ref["deadline_miss_ceiling"]
            )
            ok &= verdict
            shown = "missing" if miss_rate is None else f"{miss_rate:.4f}"
            messages.append(
                f"{'PASS' if verdict else 'FAIL'} {name}: deadline-miss "
                f"rate {shown} vs ceiling {ref['deadline_miss_ceiling']:.2f}"
            )
        if "foldin_ms_ceiling" in ref:
            foldin_ms = section.get("foldin_ms")
            verdict = (
                foldin_ms is not None
                and foldin_ms <= ref["foldin_ms_ceiling"]
            )
            ok &= verdict
            shown = "missing" if foldin_ms is None else f"{foldin_ms:.1f} ms"
            messages.append(
                f"{'PASS' if verdict else 'FAIL'} {name}: fold-in latency "
                f"{shown} vs ceiling {ref['foldin_ms_ceiling']:.0f} ms"
            )
    allocs = result.get("arena", {}).get("steady_state_allocations", -1)
    if allocs == 0:
        messages.append("PASS arena: zero steady-state allocations")
    else:
        ok = False
        messages.append(
            f"FAIL arena: {allocs} steady-state allocations (expected 0)"
        )
    retrieval_allocs = result.get("arena", {}).get(
        "retrieval_steady_state_allocations"
    )
    if retrieval_allocs is not None:
        if retrieval_allocs == 0:
            messages.append(
                "PASS arena: zero steady-state retrieval allocations"
            )
        else:
            ok = False
            messages.append(
                f"FAIL arena: {retrieval_allocs} steady-state retrieval "
                "allocations (expected 0)"
            )
    if not result.get("numerics", {}).get("equivalent", False):
        ok = False
        messages.append("FAIL numerics: optimized epoch diverged from legacy")
    else:
        messages.append("PASS numerics: optimized epoch matches legacy")
    return ok, messages


def write_report(result: dict, path: str | Path) -> Path:
    """Write the payload as pretty JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path
