"""Execution plans for the host-side runtime (paper §III, Solutions 1–2).

A :class:`RuntimePlan` is the host analogue of the paper's launch
configuration: where the chunked ``get_hermitian`` scratch lives
(``chunk_elems`` — the tile/shared-memory knob), how the batch of row
subproblems is partitioned (``shards`` — the thread-block grid), and
whether the shards run in-process on threads (``workers=0``, one lane
per usable core) or on forked OS processes (``workers >= 1``).  Plans
are plain data so they can be serialized into bench reports and
compared across machines.  Training and ``repro bench`` run the
defaults; the paper-model launch tuner is :mod:`repro.core.tuning`.
The default ``shards`` is the usable core count (:func:`usable_cores`),
so a default plan trains on every core the process may run on; on a
one-core host it is the one-shard serial plan.

Numerics are fixed per *kernel pair* (``method``, ``cg_backend``): every
layout of one pair — shards, workers, chunking, arena, CG compaction —
produces bit-identical factors and CG counters.  The default
``RuntimePlan()`` runs the fast pair (``grouped`` + ``fused``);
:data:`ORACLE_PLAN` runs the seed kernels (``reduceat`` + ``reference``)
and is bit-identical to the seed pipeline.

This module is dependency-free on purpose: it sits at the bottom of the
``core`` ↔ ``runtime`` import cycle (core models consume plans, the
executor consumes core kernels).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "CG_BACKENDS",
    "HermitianMethod",
    "ORACLE_PLAN",
    "RuntimePlan",
    "SupervisionPolicy",
    "usable_cores",
]

#: The two host kernels for forming the normal equations.  ``reduceat``
#: is the seed implementation (outer products + segment reduction), kept
#: as the bit-exact oracle; ``grouped`` (the plan default) buckets rows by
#: observation count and runs one batched BLAS matmul per bucket — the
#: same regularize-the-irregular trick the paper's register tiling
#: performs.
HERMITIAN_METHODS = ("reduceat", "grouped")

#: Kernel backends of the batched CG solver.  ``reference`` is the seed
#: implementation's kernels, kept as the bit-exact oracle; ``fused`` (the
#: plan default) replaces the per-iteration einsum with one batched GEMM
#: and stages FP16 in the float32 bit domain (cuMF_ALS's
#: fused-batched-solver shape).  Plain strings mirroring ``repro.core.cg_backends`` — this
#: module deliberately imports nothing from ``core``; a test pins the
#: two registries in sync.
CG_BACKENDS = ("reference", "fused")

#: Type alias used in signatures (plain strings keep plans JSON-ready).
HermitianMethod = str


def usable_cores() -> int:
    """CPUs this process may run on (its affinity mask, not the host's
    CPU count: a container pinned to 2 of 64 cores gets 2)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RuntimePlan:
    """How one ALS half-step is executed on the host.

    Parameters
    ----------
    method:
        Hermitian formation kernel, ``"grouped"`` (the default) or the
        oracle ``"reduceat"``.
    chunk_elems:
        Scratch budget per hermitian chunk, in float32 *elements* —
        ``nnz·f²`` for ``reduceat``, ``nnz·f`` for ``grouped``.
    shards:
        Number of contiguous nnz-balanced row shards per half-step;
        defaults to :func:`usable_cores`.
    workers:
        OS processes executing the shards; ``0`` runs the shards
        in-process on up to ``min(shards, usable_cores())`` threads
        (see :data:`repro.runtime.executor.LANE_MIN_NNZ`; one thread is
        the plain serial loop), ``>= 1`` uses a supervised fork pool
        over anonymous shared memory.  Every choice gives the same
        bits.
    compact_cg:
        Forwarded to the CG solver's frozen-system compaction:
        ``None`` lets the solver decide per iteration, ``True``/``False``
        force it (results are bit-identical either way).
    cg_backend:
        CG kernel backend, one of :data:`CG_BACKENDS`.  ``"fused"`` (the
        default) is the fast path, equivalent to the oracle
        ``"reference"`` within the VF006-derived tolerances;
        ``"reference"`` (with ``method="reduceat"``, see
        :data:`ORACLE_PLAN`) keeps the numerics bit-identical to the
        seed.
    arena:
        Reuse workspace buffers across chunks and epochs.  Disabling
        restores the seed's allocate-per-chunk behaviour (the bench's
        "legacy" leg).
    """

    method: str = "grouped"
    chunk_elems: int = 64_000_000
    shards: int = field(default_factory=usable_cores)
    workers: int = 0
    compact_cg: bool | None = None
    cg_backend: str = "fused"
    arena: bool = True

    def __post_init__(self) -> None:
        if self.method not in HERMITIAN_METHODS:
            raise ValueError(
                f"method must be one of {HERMITIAN_METHODS}, got {self.method!r}"
            )
        if self.cg_backend not in CG_BACKENDS:
            raise ValueError(
                f"cg_backend must be one of {CG_BACKENDS}, "
                f"got {self.cg_backend!r}"
            )
        if self.chunk_elems < 1:
            raise ValueError("chunk_elems must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process threads)")
        if self.workers > self.shards:
            raise ValueError("workers beyond shards would idle; lower workers")

    def as_dict(self) -> dict:
        """JSON-ready representation (bench reports, fixtures)."""
        return {
            "method": self.method,
            "chunk_elems": self.chunk_elems,
            "shards": self.shards,
            "workers": self.workers,
            "compact_cg": self.compact_cg,
            "cg_backend": self.cg_backend,
            "arena": self.arena,
        }

    @classmethod
    def from_dict(cls, data: dict) -> RuntimePlan:
        """Rebuild a plan from :meth:`as_dict` output (bench reports).

        Missing keys fall back to the field defaults so reports written
        before a field existed still load — except the kernel pair: a
        report without ``method`` or ``cg_backend`` ran the oracle
        kernels, so those load as :data:`ORACLE_PLAN`'s.  The retired
        ``index_budget`` key of older reports is dropped.  Any other
        unknown key is an error so a typo'd report can't silently
        deserialize to the default plan.
        """
        data = {k: v for k, v in data.items() if k != "index_budget"}
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown RuntimePlan keys: {sorted(unknown)}")
        oracle_pair = {
            "method": ORACLE_PLAN.method,
            "cg_backend": ORACLE_PLAN.cg_backend,
        }
        return cls(**(oracle_pair | data))


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the executor reacts to shard faults (plain data, JSON-ready).

    Parameters
    ----------
    max_retries:
        Bounded retry budget per shard; a shard that faults more than
        this many times fails the run (injected faults only fire on
        attempt 0, so supervised chaos runs always terminate).
    backoff_seconds:
        Base sleep before a retry; attempt ``k`` sleeps
        ``backoff_seconds * backoff_factor**k`` (exponential backoff).
    backoff_factor:
        Growth factor of the backoff schedule.
    backoff_jitter:
        Maximum jitter *fraction* added to each backoff sleep: attempt
        ``k`` sleeps ``backoff_seconds * backoff_factor**k * (1 + j)``
        with ``j ∈ [0, backoff_jitter)``.  When a seeded
        :class:`~repro.resilience.faults.FaultPlan` is active the draw
        comes from the plan's own SeedSequence stream, so chaos drills
        replay the identical sleep schedule; without a plan the jitter
        is zero (never global RNG — a supervised run's timing must not
        depend on unrelated random consumers).
    shard_deadline:
        Wall-clock seconds a pool shard may run before the supervisor
        kills and retries it; ``None`` disables deadlines.  Serial
        shards cannot be pre-empted, so deadlines apply to pool
        execution only.
    pool_fault_limit:
        After this many pool faults (deaths + deadlines) the executor
        degrades pool execution to supervised serial for the rest of its
        lifetime — repeated faults mean the pool itself is the hazard.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.01
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    shard_deadline: float | None = 30.0
    pool_fault_limit: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")
        if self.shard_deadline is not None and self.shard_deadline <= 0:
            raise ValueError("shard_deadline must be positive or None")
        if self.pool_fault_limit < 1:
            raise ValueError("pool_fault_limit must be >= 1")

    def as_dict(self) -> dict:
        """JSON-ready representation (chaos reports, health artifacts)."""
        return {
            "max_retries": self.max_retries,
            "backoff_seconds": self.backoff_seconds,
            "backoff_factor": self.backoff_factor,
            "backoff_jitter": self.backoff_jitter,
            "shard_deadline": self.shard_deadline,
            "pool_fault_limit": self.pool_fault_limit,
        }


#: The bit-exact oracle: the seed kernels in the default layout.  It and
#: every layout of its kernel pair are bit-identical to the seed pipeline
#: (``hermitian_and_bias`` + ``cg_solve_batched`` at their defaults).
#: Its ``shards`` is the usable core count of the importing process.
ORACLE_PLAN = RuntimePlan(method="reduceat", cg_backend="reference")
