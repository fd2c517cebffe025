"""Throughput-driven plan selection (the paper's occupancy-style tuning).

The paper picks its register-tile and thread-block geometry from the
device's occupancy calculator; the host has no such oracle, so this
module does what cuMF's autotuning mode does instead: run the dominant
kernel on a small warm-up slice under each candidate configuration and
keep the fastest.  Chunk size is a real lever on the host — too large
thrashes the cache with the O(nnz·f²) outer-product scratch, too small
drowns in per-chunk overhead — so the chunk knob is measured rather
than guessed.  Only the ``grouped`` hermitian kernel is timed by
default: the ``reduceat`` oracle lost every committed candidate by
6.6–32×, and a caller can still time it through ``methods=``.

The layout is not timed.  By default the plan runs one shard per usable
core on in-process threads (``workers=0``); the fork pool pays a fork
per shard and half-step, and on a 2-vCPU host a train fit took 0.66 s
with two fork workers against 0.52 s serial (median of 6).  A one-core host gets the
serial plan.  Every layout of the chosen kernel pair is bit-identical
(see :mod:`repro.runtime.executor`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.cg import cg_solve_batched
from ..core.config import CGConfig, Precision
from ..core.hermitian import hermitian_rows
from .arena import Workspace
from .plan import CG_BACKENDS, HERMITIAN_METHODS, ORACLE_PLAN, RuntimePlan, usable_cores

__all__ = ["AutotuneReport", "CHUNK_CANDIDATES", "autotune_plan"]

#: Chunk budgets swept by the tuner (float32 elements of kernel scratch).
#: Spans L2-cache-sized tiles up to the seed's 256 MB default.
CHUNK_CANDIDATES = (
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    64_000_000,
)


@dataclass(frozen=True)
class AutotuneReport:
    """The chosen plan plus the measurements that justified it."""

    plan: RuntimePlan
    timings: tuple  # ((method, chunk_elems, best_seconds), ...) per candidate
    warmup_rows: int  # rows of the warm-up slice actually measured
    cg_timings: tuple = ()  # ((backend, compact, best_seconds), ...) per
    # CG candidate; empty when the CG sweep was skipped (cg_backends=())
    index_unit_seconds: float | None = None  # measured seconds per
    # item·iteration of IVF index build; None when the probe was skipped

    def __post_init__(self) -> None:
        if self.warmup_rows < 1:
            raise ValueError("warm-up slice must contain at least one row")
        if not self.timings:
            raise ValueError("autotune must measure at least one candidate")

    def as_dict(self) -> dict:
        """JSON-ready representation for bench reports."""
        return {
            "plan": self.plan.as_dict(),
            "warmup_rows": self.warmup_rows,
            "timings": [
                {"method": m, "chunk_elems": c, "seconds": s}
                for m, c, s in self.timings
            ],
            "cg_timings": [
                {"backend": b, "compact": c, "seconds": s}
                for b, c, s in self.cg_timings
            ],
            "index_unit_seconds": self.index_unit_seconds,
        }


def _warmup_rows(row_ptr: np.ndarray, warmup_nnz: int) -> int:
    """Smallest contiguous row prefix covering ``warmup_nnz`` entries."""
    m = len(row_ptr) - 1
    rows = int(np.searchsorted(row_ptr, warmup_nnz, side="left"))
    return min(max(rows, 1), m)


def autotune_plan(
    ratings,
    f: int,
    *,
    warmup_nnz: int = 100_000,
    repeats: int = 2,
    methods: tuple[str, ...] = ("grouped",),
    cg_backends: tuple[str, ...] = CG_BACKENDS,
    cg_config: CGConfig | None = None,
    workers: int | None = None,
    arena: bool = True,
    index_build_seconds: float | None = None,
) -> AutotuneReport:
    """Measure candidate configurations and return the winning plan.

    Parameters
    ----------
    ratings:
        CSR matrix (or :class:`~repro.runtime.executor.CsrView`) the
        training run will process; the first rows covering
        ``warmup_nnz`` observations form the measurement slice.
    f:
        Factor dimensionality of the run being tuned (the scratch
        footprint scales with f², so tuning must use the real f).
    repeats:
        Timed repetitions per candidate after one untimed warm-up call;
        the best (minimum) time is kept, which rejects scheduler noise.
    methods:
        Hermitian kernels to sweep (each crossed with the chunk
        candidates).  Defaults to ``grouped`` alone; pass
        ``HERMITIAN_METHODS`` to time the ``reduceat`` oracle too.
    cg_backends:
        CG kernel backends to sweep (each crossed with the compaction
        modes ``None``/``True``); the fastest pair becomes the plan's
        ``cg_backend``/``compact_cg``.  Pass ``()`` to skip the CG
        sweep and keep the oracle's untimed choice (``reference``,
        ``None``).
    cg_config:
        CG configuration the sweep should time under; ``None`` uses the
        solver default.  Bench passes its real per-epoch config so the
        tuner measures the iteration count training will actually run.
    workers:
        Process count for the plan.  ``None`` keeps the shards
        in-process (``workers=0``) with one shard per usable core;
        ``0`` is the one-shard serial plan; ``>= 1`` selects the fork
        pool with that many workers and shards.
    index_build_seconds:
        Wall-clock allowance for one serving-side IVF index build at
        model-install time.  ``None`` skips the probe and leaves
        ``plan.index_budget`` unmetered; otherwise a one-iteration
        build on a small seeded catalogue measures the per-unit cost
        and the allowance converts to item·iteration units (``0``
        yields budget 0: index builds always skipped).
    """
    if f < 1:
        raise ValueError("f must be positive")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for method in methods:
        if method not in HERMITIAN_METHODS:
            raise ValueError(f"unknown hermitian method {method!r}")
    for backend in cg_backends:
        if backend not in CG_BACKENDS:
            raise ValueError(f"unknown CG backend {backend!r}")

    rows = _warmup_rows(ratings.row_ptr, warmup_nnz)
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((ratings.n, f)).astype(np.float32)
    ws = Workspace()

    timings: list[tuple[str, int, float]] = []
    best: tuple[float, str, int] | None = None
    for method in methods:
        # A budget below one f×f tile degenerates to row-at-a-time chunks;
        # skip those candidates rather than measure a guaranteed loss.
        floor = f * f * 8
        candidates = [c for c in CHUNK_CANDIDATES if c >= floor]
        if not candidates:  # huge f: nothing fits, take the biggest budget
            candidates = [max(CHUNK_CANDIDATES)]
        for chunk in candidates:
            args = dict(
                rows=slice(0, rows),
                chunk_elems=chunk,
                method=method,
                workspace=ws,
            )
            hermitian_rows(ratings, theta, 0.05, **args)  # warm the arena
            elapsed = min(
                _timed(lambda: hermitian_rows(ratings, theta, 0.05, **args))
                for _ in range(repeats)
            )
            timings.append((method, chunk, elapsed))
            if best is None or elapsed < best[0]:
                best = (elapsed, method, chunk)
    assert best is not None  # methods is non-empty and candidates exist

    # CG candidate sweep: time the solver the way the executor runs it
    # (FP16 store, arena workspace, warm start, out= buffer) on the
    # systems of the same warm-up slice, crossing each backend with the
    # compaction modes.  Numerics are not a selection concern here: every
    # registered backend passes the conformance suite, so the sweep is
    # free to pick purely on time.
    cg_timings: list[tuple[str, bool | None, float]] = []
    cg_best: tuple[float, str, bool | None] | None = None
    if cg_backends:
        A_w, b_w = hermitian_rows(
            ratings,
            theta,
            0.05,
            rows=slice(0, rows),
            method=best[1],
            chunk_elems=best[2],
            workspace=ws,
        )
        A_w = A_w.copy()  # detach from the arena before reusing it below
        b_w = b_w.copy()
        x_warm = rng.standard_normal(b_w.shape).astype(np.float32)
        out = np.empty_like(b_w)
        cfg = cg_config or CGConfig()
        for backend in cg_backends:
            for compact in (None, True):
                solve = dict(
                    x0=x_warm,
                    config=cfg,
                    precision=Precision.FP16,
                    workspace=ws,
                    compact=compact,
                    out=out,
                    backend=backend,
                )
                cg_solve_batched(A_w, b_w, **solve)  # warm the arena
                elapsed = min(
                    _timed(lambda: cg_solve_batched(A_w, b_w, **solve))
                    for _ in range(repeats)
                )
                cg_timings.append((backend, compact, elapsed))
                if cg_best is None or elapsed < cg_best[0]:
                    cg_best = (elapsed, backend, compact)
    ws.release()

    # Index-build probe: one Lloyd iteration on a small seeded catalogue
    # measures the per-item·iteration cost, and the operator's wall-clock
    # allowance converts to the plan's work-unit budget.  Imported lazily
    # — serving sits above the runtime in the layering.
    index_unit_seconds: float | None = None
    index_budget: int | None = None
    if index_build_seconds is not None:
        if index_build_seconds < 0:
            raise ValueError("index_build_seconds must be non-negative")
        from ..serving.index import IndexConfig, build_index, clustered_catalog

        probe_items = 8192
        _, theta_probe = clustered_catalog(1, probe_items, f, seed=0)
        probe_cfg = IndexConfig(iters=1, seed=0)
        build_index(theta_probe, probe_cfg)  # warm (BLAS init, caches)
        elapsed = min(
            _timed(lambda: build_index(theta_probe, probe_cfg))
            for _ in range(repeats)
        )
        index_unit_seconds = elapsed / probe_items
        index_budget = int(index_build_seconds / index_unit_seconds)

    if workers is None:
        workers, shards = 0, usable_cores()
    else:
        shards = max(1, workers)
    plan = RuntimePlan(
        method=best[1],
        chunk_elems=best[2],
        shards=shards,
        workers=workers,
        compact_cg=cg_best[2] if cg_best is not None else None,
        cg_backend=cg_best[1] if cg_best is not None else ORACLE_PLAN.cg_backend,
        arena=arena,
        index_budget=index_budget,
    )
    return AutotuneReport(
        plan=plan,
        timings=tuple(timings),
        warmup_rows=rows,
        cg_timings=tuple(cg_timings),
        index_unit_seconds=index_unit_seconds,
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
