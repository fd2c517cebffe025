"""Seeded case generators and greedy shrinking for the fuzz harness.

Every fuzz case is a small frozen dataclass of *plain numbers and
strings*: the arrays, configs and kernel specs an oracle consumes are
rebuilt deterministically from those fields (``build_*``).  That one
design choice buys the three properties a verification campaign needs:

* **reproducibility** — a whole campaign replays from a single root
  seed, and any individual case replays from its serialized params;
* **shrinkability** — greedy delta-debugging over the numeric fields
  (:func:`shrink_case`) turns a failing case into a minimal reproducer
  without any knowledge of what the oracle checks;
* **persistence** — failing cases round-trip through JSON
  (:func:`case_to_dict` / :func:`case_from_dict`) and become regression
  fixtures under ``tests/fixtures/verify/``.

Domain notes.  The solver cases deliberately cover the regimes the
paper's approximations must survive: condition numbers up to 1e6
(Solution 3's truncation tolerance is condition-dependent), magnitudes
across twelve decades (the FP32 pipeline must degrade gracefully, not
emit NaNs), FP16-safe magnitudes for the Solution 4 oracle, and rating
matrices with Zipf skew, empty rows/columns and single-user shapes —
the structures ALS meets in production traffic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from ..core.config import ALSConfig, Precision, ReadScheme
from ..core.hermitian import hermitian_and_bias
from ..core.kernels import cg_iteration_spec, hermitian_spec
from ..data.datasets import WorkloadShape
from ..data.sparse import RatingMatrix
from ..data.split import TrainTestSplit, train_test_split
from ..data.synthetic import SyntheticConfig, generate_ratings
from ..gpusim.device import DEVICE_PRESETS, DeviceSpec, get_device
from ..gpusim.kernel import KernelSpec

__all__ = [
    "SPDCase",
    "HermitianCase",
    "TrajectoryCase",
    "ResilienceCase",
    "ServingCase",
    "FleetCase",
    "IngestCase",
    "RetrievalCase",
    "KernelCase",
    "PatternCase",
    "OccupancyCase",
    "CacheCase",
    "build_spd_batch",
    "build_hermitian_system",
    "build_trajectory_split",
    "build_kernel_specs",
    "draw_spd_case",
    "draw_hermitian_case",
    "draw_trajectory_case",
    "draw_resilience_case",
    "draw_serving_case",
    "draw_fleet_case",
    "draw_ingest_case",
    "draw_retrieval_case",
    "draw_kernel_case",
    "draw_pattern_case",
    "draw_occupancy_case",
    "draw_cache_case",
    "shrink_case",
    "case_to_dict",
    "case_from_dict",
]

_MAX_SEED = 2**31


# ----------------------------------------------------------------------
# Case definitions.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SPDCase:
    """A batch of synthetic SPD systems with planted solutions.

    ``A = s·Q diag(1 … 10^-log10_cond) Qᵀ`` with ``Q`` Haar-random and
    ``s = 10^log10_scale``; ``b = A x_true``.  ``fs = 0`` means "run CG
    to convergence" (2f iterations), matching the exact-solve oracle;
    ``fs > 0`` is the paper's truncated budget.
    """

    batch: int
    f: int
    log10_cond: float
    log10_scale: float
    fs: int
    seed: int

    def __post_init__(self) -> None:
        if self.batch < 1 or self.f < 2:
            raise ValueError("batch must be >= 1 and f >= 2")
        if self.log10_cond < 0:
            raise ValueError("log10_cond must be non-negative")
        if not -12.0 <= self.log10_scale <= 12.0:
            # beyond ~1e12 the squared residual norms leave FP32 range
            # and every lane freezes at x0 — a vacuous case, not a bug.
            raise ValueError("log10_scale must be within [-12, 12]")
        if self.fs < 0:
            raise ValueError("fs must be non-negative (0 = run to convergence)")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")

    @property
    def cond(self) -> float:
        return 10.0**self.log10_cond

    @property
    def max_iters(self) -> int:
        return self.fs if self.fs else 2 * self.f


@dataclass(frozen=True)
class HermitianCase:
    """Normal equations ``A_u, b_u`` formed from a random rating matrix.

    Exercises the real ALS pipeline (Zipf skew, duplicate-free sampling,
    λ-regularization) including the shapes synthetic SPD draws miss:
    ``empty_rows``/``empty_cols`` append users/items with no ratings
    (their A_u is exactly the λI regularizer), and shrinking drives
    ``m`` to 1 — the single-user edge case.
    """

    m: int
    n: int
    nnz: int
    f: int
    lam: float
    zipf: float
    empty_rows: int
    empty_cols: int
    seed: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not 1 <= self.nnz <= self.m * self.n:
            raise ValueError("nnz must be in [1, m*n]")
        if self.f < 2:
            raise ValueError("f must be >= 2")
        if self.lam <= 0:
            raise ValueError("lam must be positive (it is what makes A_u SPD)")
        if self.zipf < 0:
            raise ValueError("zipf must be non-negative")
        if self.empty_rows < 0 or self.empty_cols < 0:
            raise ValueError("empty paddings must be non-negative")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class TrajectoryCase:
    """A tiny ALS run compared at FP32 vs FP16 storage (Solution 4)."""

    m: int
    n: int
    nnz: int
    f: int
    fs: int
    epochs: int
    lam: float
    seed: int

    def __post_init__(self) -> None:
        if self.m < 4 or self.n < 4:
            raise ValueError("m and n must be >= 4 (the split needs signal)")
        if not self.m <= self.nnz <= self.m * self.n:
            raise ValueError("nnz must be in [m, m*n]")
        if self.f < 2 or self.fs < 1 or self.epochs < 1:
            raise ValueError("f >= 2, fs >= 1 and epochs >= 1 required")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class RuntimeCase:
    """One ALS half-step replayed under different execution plans (VF107).

    The runtime layer promises that chunk size, shard count, worker
    processes, workspace reuse and CG compaction are pure wall-clock
    knobs: within one kernel pair the produced factors (and the solver's
    iteration/matvec accounting) must be **bit-identical** — to the raw
    seed kernels for ``ORACLE_PLAN``, to the default serial run for the
    default pair.  The case carries one plan geometry to replay; the
    check runs it — plus a few fixed contrasting layouts — under both
    kernel pairs.
    """

    m: int
    n: int
    nnz: int
    f: int
    fs: int
    lam: float
    chunk_elems: int
    shards: int
    workers: int
    precision: str
    seed: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not 1 <= self.nnz <= self.m * self.n:
            raise ValueError("nnz must be in [1, m*n]")
        if self.f < 2:
            raise ValueError("f must be >= 2")
        if self.fs < 1:
            raise ValueError("fs must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.chunk_elems < 1:
            raise ValueError("chunk_elems must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0 <= self.workers <= self.shards:
            raise ValueError("workers must be in [0, shards]")
        if self.precision not in {p.value for p in Precision}:
            raise ValueError(f"unknown precision {self.precision!r}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class ResilienceCase:
    """A supervised ALS run under a seeded fault campaign (VF108).

    The resilience layer promises that a training run with faults
    injected at every class (worker kills, shard delays, NaN flips,
    FP16 overflows) still terminates, accounts for every injected fault
    in its health log, and recovers an objective indistinguishable from
    the fault-free run — bit-identical at FP32 (repairs re-solve the
    pristine systems with the same arithmetic), within the FP16 noise
    floor otherwise.
    """

    m: int
    n: int
    nnz: int
    f: int
    fs: int
    lam: float
    shards: int
    workers: int
    epochs: int
    kill_rate: float
    delay_rate: float
    nan_rate: float
    overflow_rate: float
    precision: str
    seed: int

    def __post_init__(self) -> None:
        if self.m < 4 or self.n < 4:
            raise ValueError("m and n must be >= 4")
        if not self.m <= self.nnz <= self.m * self.n:
            raise ValueError("nnz must be in [m, m*n]")
        if self.f < 2 or self.fs < 1 or self.epochs < 1:
            raise ValueError("f >= 2, fs >= 1 and epochs >= 1 required")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0 <= self.workers <= self.shards:
            raise ValueError("workers must be in [0, shards]")
        for name in ("kill_rate", "delay_rate", "nan_rate", "overflow_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.precision not in {p.value for p in Precision}:
            raise ValueError(f"unknown precision {self.precision!r}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class ServingCase:
    """A serving engine under a seeded traffic + fault campaign (VF109).

    The serving layer promises that no request is ever lost: whatever
    the fault plan does, the :class:`ServingHealth` multiset accounting
    balances, every injected fault is logged tick-exactly, no request
    faults while the popularity baseline stands, and a no-op hot reload
    leaves scoring bit-equivalent.  When offered load fits the batch
    capacity (``max_arrivals <= max_batch``), availability must also
    clear the ladder's ≥ 99 % floor.
    """

    m: int
    n: int
    f: int
    requests: int
    max_arrivals: int
    queue_capacity: int
    max_batch: int
    budget_ticks: int
    stall_rate: float
    reload_rate: float
    corrupt_rate: float
    score_nan_rate: float
    seed: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise ValueError("m and n must be >= 2")
        if self.f < 2:
            raise ValueError("f must be >= 2")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.max_arrivals < 1:
            raise ValueError("max_arrivals must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.budget_ticks < 0:
            raise ValueError("budget_ticks must be non-negative")
        for name in ("stall_rate", "reload_rate", "corrupt_rate", "score_nan_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class FleetCase:
    """A multi-process serving fleet under worker-scoped chaos (VF111).

    The :class:`~repro.serving.fleet.FleetEngine` promises everything
    the single-process engine does — exact multiset accounting, no lost
    or duplicated request — *plus* fleet-specific contracts: with one
    worker and no faults it is read-equivalent (bit-identical results,
    identical terminal kinds) to :class:`ServingEngine`; under worker
    kills, rolling reloads and heartbeat stalls every re-route is
    audited against an admission and the drill replays
    deterministically on the virtual tick clock.
    """

    m: int
    n: int
    f: int
    requests: int
    max_arrivals: int
    queue_capacity: int
    max_batch: int
    budget_ticks: int
    workers: int
    worker_kill_rate: float
    worker_reload_rate: float
    heartbeat_stall_rate: float
    seed: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise ValueError("m and n must be >= 2")
        if self.f < 2:
            raise ValueError("f must be >= 2")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.max_arrivals < 1:
            raise ValueError("max_arrivals must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.budget_ticks < 0:
            raise ValueError("budget_ticks must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for name in ("worker_kill_rate", "worker_reload_rate", "heartbeat_stall_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class IngestCase:
    """A streamed fold-in against its crash-replay + retrain oracles (VF112).

    The streaming layer promises that (1) a run killed mid-stream — WAL
    tail torn mid-record — resumes from ``base checkpoint + deltas +
    WAL replay`` into **bit-identical** factors, (2) rows outside the
    dirty sets are bit-identical to the pre-stream factors (fold-in
    touches only dirty shards), and (3) explicit-mode fold-in stays
    within a calibrated RMSE envelope of a full retrain over the
    updated corpus.  ``alpha == 0`` draws the explicit ALS-WR
    objective; positive alpha exercises the implicit hooks (replay and
    clean-row contracts only — RMSE is not implicit feedback's loss).
    """

    m: int
    n: int
    f: int
    nnz: int
    streamed: int
    apply_every: int
    kill_at: int
    shards: int
    compact_every: int
    fs: int
    lam: float
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise ValueError("m and n must be >= 2")
        if self.f < 2:
            raise ValueError("f must be >= 2")
        if self.nnz < 1:
            raise ValueError("nnz must be >= 1")
        if self.streamed < 1:
            raise ValueError("streamed must be >= 1")
        if self.apply_every < 1:
            raise ValueError("apply_every must be >= 1")
        if not 0 <= self.kill_at <= self.streamed:
            raise ValueError("kill_at must be within [0, streamed]")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        if self.fs < 1:
            raise ValueError("fs must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative (0 = explicit)")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class RetrievalCase:
    """An IVF retrieval index probed against its brute-force oracle (VF110).

    The catalogue is a seeded clustered surrogate
    (:func:`~repro.serving.index.clustered_catalog`) so the draw spans
    everything from strongly clustered (IVF's home turf) to a single
    isotropic blob (its adversarial worst case).  ``ncells == 0`` lets
    the build derive ``sqrt(n_items)``; a positive value pins the
    quantizer size to exercise off-default cell counts.
    """

    n_items: int
    f: int
    users: int
    k: int
    ncells: int  # 0 = derive sqrt(n_items)
    clusters: int
    spread: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_items < 2:
            raise ValueError("n_items must be >= 2")
        if self.f < 2:
            raise ValueError("f must be >= 2")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if not 1 <= self.k <= self.n_items:
            raise ValueError("k must be within [1, n_items]")
        if not 0 <= self.ncells <= self.n_items:
            raise ValueError("ncells must be within [0, n_items] (0 = derive)")
        if self.clusters < 1:
            raise ValueError("clusters must be >= 1")
        if not 0.0 < self.spread <= 1.0:
            raise ValueError("spread must be in (0, 1]")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed out of range")


@dataclass(frozen=True)
class KernelCase:
    """A (device, workload, launch config) triple for the timing model."""

    device: str
    m: int
    n: int
    nnz: int
    f: int
    tile: int
    threads_per_block: int
    bin_size: int
    read_scheme: str
    precision: str

    def __post_init__(self) -> None:
        if self.device not in DEVICE_PRESETS:
            raise ValueError(f"unknown device preset {self.device!r}")
        if min(self.m, self.n, self.nnz) < 1:
            raise ValueError("m, n, nnz must be positive")
        if not 2 <= self.f <= 160:
            # 2f must stay in the constant-occupancy regime of the CG
            # iteration kernel for the monotone-in-f metamorphic relation.
            raise ValueError("f must be in [2, 160]")
        if self.tile < 1 or self.bin_size < 1:
            raise ValueError("tile and bin_size must be positive")
        if self.threads_per_block < 32 or self.threads_per_block % 32:
            raise ValueError("threads_per_block must be a positive warp multiple")
        if self.threads_per_block > 256:
            raise ValueError("threads_per_block above 256 can be unlaunchable")
        if self.read_scheme not in {s.value for s in ReadScheme}:
            raise ValueError(f"unknown read scheme {self.read_scheme!r}")
        if self.precision not in {p.value for p in Precision}:
            raise ValueError(f"unknown precision {self.precision!r}")


@dataclass(frozen=True)
class PatternCase:
    """A warp access-pattern comparison: coalesced vs per-thread strided."""

    num_elements: int
    element_bytes: int
    stride_elements: int

    def __post_init__(self) -> None:
        if self.num_elements < 0:
            raise ValueError("num_elements must be non-negative")
        if self.element_bytes not in (2, 4, 8):
            raise ValueError("element_bytes must be 2, 4 or 8")
        if self.stride_elements < 1:
            raise ValueError("stride_elements must be >= 1")


@dataclass(frozen=True)
class OccupancyCase:
    """A kernel resource footprint plus an SM-count scaling factor."""

    device: str
    registers_per_thread: int
    threads_per_block: int
    shared_mem_per_block: int
    sm_scale: int

    def __post_init__(self) -> None:
        if self.device not in DEVICE_PRESETS:
            raise ValueError(f"unknown device preset {self.device!r}")
        if self.registers_per_thread < 1:
            raise ValueError("registers_per_thread must be positive")
        if self.threads_per_block < 32 or self.threads_per_block % 32:
            raise ValueError("threads_per_block must be a positive warp multiple")
        if self.shared_mem_per_block < 0:
            raise ValueError("shared_mem_per_block must be non-negative")
        if self.sm_scale < 2:
            raise ValueError("sm_scale must be >= 2 (1 is a vacuous relation)")


@dataclass(frozen=True)
class CacheCase:
    """A working-set ladder against one cache capacity."""

    cache_bytes: int
    base_working_set_bytes: int
    reuse_factor: float

    def __post_init__(self) -> None:
        if self.cache_bytes < 1:
            raise ValueError("cache_bytes must be positive")
        if self.base_working_set_bytes < 0:
            raise ValueError("base_working_set_bytes must be non-negative")
        if self.reuse_factor < 1.0:
            raise ValueError("reuse_factor must be >= 1")


# ----------------------------------------------------------------------
# Deterministic builders.
# ----------------------------------------------------------------------


def build_spd_batch(case: SPDCase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize ``(A, b, x_true)`` for an :class:`SPDCase`.

    A is constructed in float64 with an exact eigenvalue ladder spanning
    the requested condition number, then cast to float32 — the same
    representation the solvers under test receive from ``get_hermitian``.
    """
    rng = np.random.default_rng(case.seed)
    eigs = np.logspace(0.0, -case.log10_cond, case.f)
    Q, _ = np.linalg.qr(rng.normal(size=(case.batch, case.f, case.f)))
    A = (Q * eigs) @ np.swapaxes(Q, 1, 2)
    A = (A + np.swapaxes(A, 1, 2)) * (0.5 * 10.0**case.log10_scale)
    x_true = rng.normal(size=(case.batch, case.f))
    b = np.einsum("bij,bj->bi", A, x_true)
    return A.astype(np.float32), b.astype(np.float32), x_true


def build_hermitian_system(case: HermitianCase) -> tuple[np.ndarray, np.ndarray]:
    """Form ``(A, b)`` for every row of the case's rating matrix."""
    rng = np.random.default_rng(case.seed)
    ratings = generate_ratings(
        SyntheticConfig(
            m=case.m,
            n=case.n,
            nnz=case.nnz,
            true_rank=min(4, case.f),
            zipf_exponent=case.zipf,
            seed=case.seed,
        ),
        rng=rng,
    )
    if case.empty_rows or case.empty_cols:
        rows = np.repeat(np.arange(ratings.m), ratings.row_counts())
        ratings = RatingMatrix.from_coo(
            rows,
            ratings.col_idx,
            ratings.row_val,
            m=ratings.m + case.empty_rows,
            n=ratings.n + case.empty_cols,
        )
    theta = rng.normal(0.0, 0.1, size=(ratings.n, case.f)).astype(np.float32)
    return hermitian_and_bias(ratings, theta, case.lam)


def build_trajectory_split(case: TrajectoryCase) -> TrainTestSplit:
    """The train/test split both precision variants of the case train on."""
    ratings = generate_ratings(
        SyntheticConfig(
            m=case.m,
            n=case.n,
            nnz=case.nnz,
            true_rank=min(4, case.f),
            seed=case.seed,
        )
    )
    return train_test_split(ratings, 0.2, seed=case.seed)


def build_runtime_inputs(
    case: RuntimeCase,
) -> tuple[RatingMatrix, np.ndarray, np.ndarray]:
    """Materialize ``(ratings, theta, warm)`` for a runtime case."""
    rng = np.random.default_rng(case.seed)
    ratings = generate_ratings(
        SyntheticConfig(
            m=case.m,
            n=case.n,
            nnz=case.nnz,
            true_rank=min(4, case.f),
            seed=case.seed,
        ),
        rng=rng,
    )
    theta = rng.normal(0.0, 0.1, size=(ratings.n, case.f)).astype(np.float32)
    warm = rng.normal(0.0, 0.1, size=(ratings.m, case.f)).astype(np.float32)
    return ratings, theta, warm


def build_kernel_specs(case: KernelCase) -> tuple[DeviceSpec, KernelSpec, KernelSpec]:
    """Build the hermitian-pass and CG-iteration specs for a case."""
    device = get_device(case.device)
    config = _als_config(case)
    shape = WorkloadShape(m=case.m, n=case.n, nnz=case.nnz, f=case.f)
    herm = hermitian_spec(
        device, shape, config, threads_per_block=case.threads_per_block
    )
    cg = cg_iteration_spec(device, case.m, case.f, config.precision)
    return device, herm, cg


def _als_config(case: KernelCase, *, f: int | None = None) -> ALSConfig:
    return ALSConfig(
        f=case.f if f is None else f,
        tile=case.tile,
        bin_size=case.bin_size,
        read_scheme=ReadScheme(case.read_scheme),
        precision=Precision(case.precision),
    )


# ----------------------------------------------------------------------
# Draws.  Each takes the campaign's root Generator so the whole run is
# reproducible from one seed; case-internal randomness re-derives from
# the drawn per-case seed.
# ----------------------------------------------------------------------


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, _MAX_SEED))


def draw_spd_case(
    rng: np.random.Generator,
    *,
    max_log10_cond: float = 6.0,
    max_abs_log10_scale: float = 6.0,
    truncated: bool = False,
) -> SPDCase:
    """Draw a solver case; ``truncated`` draws a paper-style f_s budget."""
    return SPDCase(
        batch=int(rng.integers(1, 7)),
        f=int(rng.integers(2, 65)),
        log10_cond=round(float(rng.uniform(0.0, max_log10_cond)), 3),
        log10_scale=round(
            float(rng.uniform(-max_abs_log10_scale, max_abs_log10_scale)), 3
        ),
        fs=int(rng.integers(1, 9)) if truncated else 0,
        seed=_seed(rng),
    )


def draw_hermitian_case(rng: np.random.Generator) -> HermitianCase:
    single_user = bool(rng.random() < 0.15)
    m = 1 if single_user else int(rng.integers(2, 41))
    n = int(rng.integers(2, 41))
    nnz_cap = min(m * n, 6 * (m + n))
    padded = bool(rng.random() < 0.3)
    return HermitianCase(
        m=m,
        n=n,
        nnz=int(rng.integers(1, nnz_cap + 1)),
        f=int(rng.integers(2, 17)),
        lam=round(float(10.0 ** rng.uniform(-3, 0.3)), 6),
        zipf=round(float(rng.uniform(0.0, 2.0)), 3),
        empty_rows=int(rng.integers(1, 6)) if padded else 0,
        empty_cols=int(rng.integers(1, 6)) if padded else 0,
        seed=_seed(rng),
    )


def draw_trajectory_case(rng: np.random.Generator) -> TrajectoryCase:
    m = int(rng.integers(20, 61))
    n = int(rng.integers(15, 51))
    return TrajectoryCase(
        m=m,
        n=n,
        nnz=int(rng.integers(4 * m, min(10 * m, m * n // 2) + 1)),
        f=int(rng.integers(4, 13)),
        fs=int(rng.integers(3, 8)),
        epochs=int(rng.integers(2, 5)),
        lam=round(float(10.0 ** rng.uniform(-2, 0.0)), 6),
        seed=_seed(rng),
    )


def draw_runtime_case(rng: np.random.Generator) -> RuntimeCase:
    m = int(rng.integers(4, 41))
    n = int(rng.integers(4, 33))
    nnz_cap = min(m * n, 6 * (m + n))
    f = int(rng.integers(2, 13))
    shards = int(rng.integers(1, 6))
    # Process-pool cases fork real workers; keep them a minority so the
    # campaign stays fast, but always covered.
    workers = int(rng.integers(1, min(shards, 2) + 1)) if rng.random() < 0.3 else 0
    return RuntimeCase(
        m=m,
        n=n,
        nnz=int(rng.integers(1, nnz_cap + 1)),
        f=f,
        fs=int(rng.integers(1, 8)),
        lam=round(float(10.0 ** rng.uniform(-3, 0.3)), 6),
        # From pathologically small (every chunk clamps to one row) up to
        # comfortably holding the whole slice.
        chunk_elems=int(2 ** rng.integers(6, 21)),
        shards=shards,
        workers=workers,
        precision=str(rng.choice([p.value for p in Precision])),
        seed=_seed(rng),
    )


def draw_resilience_case(rng: np.random.Generator) -> ResilienceCase:
    m = int(rng.integers(16, 49))
    n = int(rng.integers(12, 41))
    shards = int(rng.integers(2, 5))
    # Pool supervision (real forked workers, real SIGKILLs) is the slow
    # path; keep it a minority of draws but always covered.
    workers = 2 if rng.random() < 0.25 else 0

    def rate() -> float:
        # ≥1% whenever active so campaigns actually inject faults.
        return round(float(rng.uniform(0.01, 0.3)), 4) if rng.random() < 0.8 else 0.0

    return ResilienceCase(
        m=m,
        n=n,
        nnz=int(rng.integers(3 * m, min(8 * m, m * n // 2) + 1)),
        f=int(rng.integers(3, 11)),
        fs=int(rng.integers(2, 7)),
        lam=round(float(10.0 ** rng.uniform(-2, 0.0)), 6),
        shards=shards,
        workers=workers,
        epochs=int(rng.integers(1, 4)),
        kill_rate=rate(),
        delay_rate=rate(),
        nan_rate=rate(),
        overflow_rate=rate(),
        precision=str(rng.choice([p.value for p in Precision])),
        seed=_seed(rng),
    )


def draw_serving_case(rng: np.random.Generator) -> ServingCase:
    def rate(hi: float) -> float:
        # ≥1% whenever active so campaigns actually inject faults.
        return round(float(rng.uniform(0.01, hi)), 4) if rng.random() < 0.8 else 0.0

    max_batch = int(rng.integers(1, 9))
    return ServingCase(
        m=int(rng.integers(4, 49)),
        n=int(rng.integers(4, 41)),
        f=int(rng.integers(2, 13)),
        requests=int(rng.integers(10, 81)),
        # Occasionally oversubscribe the batcher to exercise deadline
        # sheds and queue-full rejections, not just the happy path.
        max_arrivals=int(rng.integers(1, max_batch + 3)),
        queue_capacity=int(rng.integers(2, 33)),
        max_batch=max_batch,
        budget_ticks=int(rng.integers(0, 13)),
        stall_rate=rate(0.3),
        reload_rate=rate(0.1),
        corrupt_rate=rate(0.1),
        score_nan_rate=rate(0.2),
        seed=_seed(rng),
    )


def draw_fleet_case(rng: np.random.Generator) -> FleetCase:
    def rate(hi: float) -> float:
        # ≥1% whenever active so campaigns actually inject faults.
        return round(float(rng.uniform(0.01, hi)), 4) if rng.random() < 0.8 else 0.0

    max_batch = int(rng.integers(1, 9))
    return FleetCase(
        m=int(rng.integers(4, 33)),
        n=int(rng.integers(4, 33)),
        f=int(rng.integers(2, 9)),
        requests=int(rng.integers(8, 49)),
        max_arrivals=int(rng.integers(1, max_batch + 2)),
        queue_capacity=int(rng.integers(4, 33)),
        max_batch=max_batch,
        budget_ticks=int(rng.integers(2, 13)),
        # Keep the pool small: each worker is a forked process, and the
        # equivalence leg at workers == 1 must stay common enough to
        # exercise the bit-identity contract.
        workers=int(rng.integers(1, 4)),
        worker_kill_rate=rate(0.15),
        worker_reload_rate=rate(0.1),
        heartbeat_stall_rate=rate(0.1),
        seed=_seed(rng),
    )


def draw_ingest_case(rng: np.random.Generator) -> IngestCase:
    m = int(rng.integers(12, 41))
    n = int(rng.integers(10, 33))
    streamed = int(rng.integers(4, 25))
    return IngestCase(
        m=m,
        n=n,
        f=int(rng.integers(3, 9)),
        nnz=int(rng.integers(4 * m, min(8 * m, m * n // 2) + 1)),
        streamed=streamed,
        apply_every=int(rng.integers(1, 7)),
        # Anywhere in the stream, including 0 (resume before anything
        # was applied) and streamed (resume of a finished run).
        kill_at=int(rng.integers(0, streamed + 1)),
        shards=int(rng.integers(1, 5)),
        compact_every=int(rng.integers(1, 4)),
        fs=int(rng.integers(2, 7)),
        lam=round(float(10.0 ** rng.uniform(-2, 0.0)), 6),
        # Implicit-mode hooks in a minority of draws; 0 = explicit.
        alpha=round(float(rng.uniform(0.5, 40.0)), 4) if rng.random() < 0.25 else 0.0,
        seed=_seed(rng),
    )


def draw_retrieval_case(rng: np.random.Generator) -> RetrievalCase:
    n_items = int(rng.integers(64, 2049))
    return RetrievalCase(
        n_items=n_items,
        f=int(rng.integers(4, 33)),
        users=int(rng.integers(4, 33)),
        # k small relative to the catalogue: top-k serving's regime, and
        # the one the calibrated recall floors were measured on.
        k=int(rng.integers(1, min(16, n_items // 8) + 1)),
        # Mostly derive sqrt(n_items); sometimes pin an off-default size.
        ncells=int(rng.integers(2, 33)) if rng.random() < 0.25 else 0,
        clusters=int(rng.integers(1, 17)),
        spread=round(float(rng.uniform(0.05, 0.6)), 4),
        seed=_seed(rng),
    )


def draw_kernel_case(rng: np.random.Generator) -> KernelCase:
    for _ in range(32):
        m = int(10.0 ** rng.uniform(0.0, 5.0))
        case = KernelCase(
            device=str(rng.choice(sorted(DEVICE_PRESETS))),
            m=m,
            n=int(10.0 ** rng.uniform(0.0, 5.0)),
            nnz=max(m, int(m * 10.0 ** rng.uniform(0.0, 2.0))),
            f=int(rng.integers(4, 161)),
            tile=int(rng.integers(2, 17)),
            threads_per_block=32 * int(rng.integers(1, 9)),
            bin_size=int(rng.choice((8, 16, 32, 64))),
            read_scheme=str(rng.choice([s.value for s in ReadScheme])),
            precision=str(rng.choice([p.value for p in Precision])),
        )
        try:
            build_kernel_specs(case)
        except ValueError:
            continue
        return case
    raise RuntimeError("could not draw a launchable kernel case")


def draw_pattern_case(rng: np.random.Generator) -> PatternCase:
    return PatternCase(
        num_elements=int(10.0 ** rng.uniform(0.0, 6.0)),
        element_bytes=int(rng.choice((2, 4, 8))),
        stride_elements=int(10.0 ** rng.uniform(0.0, 3.0)),
    )


def draw_occupancy_case(rng: np.random.Generator) -> OccupancyCase:
    return OccupancyCase(
        device=str(rng.choice(sorted(DEVICE_PRESETS))),
        registers_per_thread=int(rng.integers(16, 129)),
        threads_per_block=32 * int(rng.integers(1, 9)),
        shared_mem_per_block=int(rng.integers(0, 49)) * 1024,
        sm_scale=int(rng.integers(2, 5)),
    )


def draw_cache_case(rng: np.random.Generator) -> CacheCase:
    return CacheCase(
        cache_bytes=int(2 ** rng.integers(10, 23)),
        base_working_set_bytes=int(10.0 ** rng.uniform(0.0, 7.0)),
        reuse_factor=round(float(rng.uniform(1.0, 16.0)), 3),
    )


# ----------------------------------------------------------------------
# Shrinking: greedy delta-debugging over numeric fields.
# ----------------------------------------------------------------------

#: Lower bound each shrinkable field moves toward.  Fields absent here
#: (seeds, device names, enum strings) are never shrunk; candidates that
#: violate a case's own validation are skipped.
_SHRINK_MINIMA: dict[str, int | float] = {
    "batch": 1,
    "f": 2,
    "fs": 1,
    "m": 1,
    "n": 1,
    "nnz": 1,
    "epochs": 1,
    "empty_rows": 0,
    "empty_cols": 0,
    "tile": 1,
    "threads_per_block": 32,
    "bin_size": 1,
    "chunk_elems": 1,
    "shards": 1,
    "workers": 0,
    "num_elements": 0,
    "stride_elements": 1,
    "registers_per_thread": 1,
    "shared_mem_per_block": 0,
    "sm_scale": 2,
    "cache_bytes": 1024,
    "base_working_set_bytes": 0,
    "log10_cond": 0.0,
    "log10_scale": 0.0,
    "lam": 1e-3,
    "zipf": 0.0,
    "reuse_factor": 1.0,
    "kill_rate": 0.0,
    "delay_rate": 0.0,
    "nan_rate": 0.0,
    "overflow_rate": 0.0,
    "requests": 1,
    "max_arrivals": 1,
    "queue_capacity": 1,
    "max_batch": 1,
    "budget_ticks": 0,
    "stall_rate": 0.0,
    "reload_rate": 0.0,
    "corrupt_rate": 0.0,
    "score_nan_rate": 0.0,
    "worker_kill_rate": 0.0,
    "worker_reload_rate": 0.0,
    "heartbeat_stall_rate": 0.0,
    "streamed": 1,
    "apply_every": 1,
    "kill_at": 0,
    "compact_every": 1,
    "alpha": 0.0,
    "n_items": 2,
    "users": 1,
    "k": 1,
    "ncells": 0,
    "clusters": 1,
    "spread": 0.05,
}


def _shrink_values(value: object, lo: int | float) -> list[int | float]:
    """Candidate replacements for one field, most aggressive first."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    out: list[int | float] = []
    if isinstance(value, int):
        for cand in (int(lo), (value + int(lo)) // 2, value - 1):
            if lo <= cand < value and cand not in out:
                out.append(cand)
    elif value - lo > 1e-3:
        out = [float(lo), round((value + lo) / 2.0, 6)]
    return out


def shrink_case(case, still_fails: Callable[[object], bool], *, max_attempts: int = 256):
    """Greedily minimize ``case`` while ``still_fails`` keeps returning True.

    Classic scalar delta-debugging: for each shrinkable field, try the
    minimum, the midpoint and the decrement (in that order); accept the
    first candidate that still reproduces the failure and restart.  The
    predicate runs the real oracle, so the loop is bounded by
    ``max_attempts`` total predicate evaluations.
    """
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for field_ in fields(case):
            lo = _SHRINK_MINIMA.get(field_.name)
            if lo is None:
                continue
            for cand_value in _shrink_values(getattr(case, field_.name), lo):
                if attempts >= max_attempts:
                    return case
                try:
                    candidate = replace(case, **{field_.name: cand_value})
                except (ValueError, TypeError):
                    continue
                attempts += 1
                if still_fails(candidate):
                    case = candidate
                    progress = True
                    break
    return case


# ----------------------------------------------------------------------
# Serialization (fixtures).
# ----------------------------------------------------------------------

_CASE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SPDCase,
        HermitianCase,
        TrajectoryCase,
        RuntimeCase,
        ResilienceCase,
        ServingCase,
        FleetCase,
        IngestCase,
        RetrievalCase,
        KernelCase,
        PatternCase,
        OccupancyCase,
        CacheCase,
    )
}


def case_to_dict(case) -> dict:
    """JSON-ready representation; inverse of :func:`case_from_dict`."""
    name = type(case).__name__
    if name not in _CASE_TYPES:
        raise TypeError(f"not a registered case type: {name}")
    return {"case_type": name, "params": asdict(case)}


def case_from_dict(data: dict):
    """Rebuild a case from :func:`case_to_dict` output (validates fields)."""
    cls = _CASE_TYPES.get(data.get("case_type", ""))
    if cls is None:
        raise ValueError(f"unknown case type {data.get('case_type')!r}")
    return cls(**data["params"])


def spd_condition_estimate(case: SPDCase) -> float:
    """The planted condition number (exact by construction)."""
    return case.cond


def hermitian_condition_estimate(A: np.ndarray) -> float:
    """Worst 2-norm condition number across a batch of A_u systems."""
    return float(np.max(np.linalg.cond(A.astype(np.float64))))


def large_grid_rows(device: DeviceSpec) -> int:
    """Rows guaranteeing >= 4 full waves at any occupancy on ``device``.

    The monotone-in-f metamorphic relation only holds once tail-wave
    quantization is bounded (tail factor <= 1.25); grids this large
    guarantee that at both f and 2f.
    """
    return 4 * device.max_blocks_per_sm * device.num_sms
