"""Data-parallel multi-GPU ALS (paper §V-C: four GPUs on Hugewiki).

cuMF_ALS scales across GPUs the way the HPDC'16 system does: rows of X
(and, in the other half-step, rows of Θ) are range-partitioned across
devices; every device holds the full fixed factor matrix, computes its
partition's normal equations and solutions, then the fresh factors are
allgathered over NVLink before the next half-step.

Each device is one shard of a :class:`~repro.runtime.executor
.ShardExecutor` half-step under ``RuntimePlan(shards=num_gpus)``, so the
numerics are single-GPU ALS's bit for bit (the executor's shard
invariance); the cost is priced per device from those same
:func:`~repro.runtime.executor.partition_rows` spans, with the slowest
device plus the allgather setting the epoch clock — which is exactly why
the paper sees near-linear speedups on Hugewiki (compute ≫
communication) but runs Netflix on one GPU.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import WorkloadShape
from ..data.sparse import RatingMatrix
from ..gpusim.device import PASCAL_P100, DeviceSpec
from ..gpusim.engine import SimEngine
from ..gpusim.interconnect import NVLINK_P100, Link, allgather_time
from ..metrics.convergence import TrainingCurve
from ..metrics.rmse import rmse
from ..runtime.executor import ShardExecutor, partition_rows
from ..runtime.plan import RuntimePlan
from .config import ALSConfig, SolverKind
from .kernels import bias_spec, cg_iteration_spec, hermitian_spec, lu_solver_seconds

__all__ = ["MultiGpuALS"]


class MultiGpuALS:
    """ALS across ``num_gpus`` simulated devices joined by ``link``."""

    def __init__(
        self,
        config: ALSConfig | None = None,
        device: DeviceSpec = PASCAL_P100,
        num_gpus: int = 4,
        link: Link = NVLINK_P100,
        sim_shape: WorkloadShape | None = None,
    ) -> None:
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        self.config = config or ALSConfig()
        self.device = device
        self.num_gpus = num_gpus
        self.link = link
        self.sim_shape = sim_shape
        self.engines = [SimEngine(device) for _ in range(num_gpus)]
        self.runtime = ShardExecutor(RuntimePlan(shards=num_gpus))
        self.x_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.history_: TrainingCurve | None = None

    @property
    def clock(self) -> float:
        """Simulated wall-clock: all devices are barrier-synchronized."""
        return max(e.clock for e in self.engines)

    def fit(
        self,
        train: RatingMatrix,
        test: RatingMatrix | None = None,
        *,
        epochs: int = 10,
        target_rmse: float | None = None,
        label: str | None = None,
    ) -> TrainingCurve:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if target_rmse is not None and test is None:
            raise ValueError("target_rmse requires a test set")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.x_ = rng.normal(0, cfg.init_scale, (train.m, cfg.f)).astype(np.float32)
        self.theta_ = rng.normal(0, cfg.init_scale, (train.n, cfg.f)).astype(np.float32)
        curve = TrainingCurve(label or f"cumf_als@{self.num_gpus}x{self.device.generation}")
        self.history_ = curve

        train_t = train.transpose()
        for epoch in range(1, epochs + 1):
            self.x_ = self._half_step(train, self.theta_, self.x_, side="x")
            self.theta_ = self._half_step(train_t, self.x_, self.theta_, side="theta")
            test_rmse = rmse(self.x_, self.theta_, test) if test is not None else float("nan")
            curve.record(epoch, self.clock, test_rmse)
            if target_rmse is not None and test_rmse <= target_rmse:
                break
        return curve

    # ------------------------------------------------------------------
    def _half_step(
        self, ratings: RatingMatrix, fixed: np.ndarray, warm: np.ndarray, side: str
    ) -> np.ndarray:
        cfg = self.config
        result = self.runtime.half_step(
            ratings,
            fixed,
            warm,
            lam=cfg.lam,
            solver=cfg.solver,
            cg_config=cfg.cg,
            precision=cfg.precision,
            key=side,
        )

        # Price each device's share of the work.
        base = WorkloadShape(m=ratings.m, n=ratings.n, nnz=max(ratings.nnz, 1), f=cfg.f)
        shape = self.sim_shape if side == "x" else (
            self.sim_shape.transpose() if self.sim_shape else None
        )
        shape = shape or base
        scale = shape.nnz / base.nnz
        parts = partition_rows(ratings.row_ptr, self.runtime.plan.shards)
        tag = f"update_{side}"
        for eng, (lo, hi) in zip(self.engines, parts):
            rows = max(1, int(round((hi - lo) / base.m * shape.m)))
            nnz = max(
                1,
                int(round((ratings.row_ptr[hi] - ratings.row_ptr[lo]) * scale)),
            )
            part_shape = WorkloadShape(m=rows, n=shape.n, nnz=nnz, f=shape.f)
            eng.launch(hermitian_spec(self.device, part_shape, cfg), tag=tag)
            eng.launch(bias_spec(self.device, part_shape), tag=tag)
            if cfg.solver is SolverKind.CG:
                spec = cg_iteration_spec(self.device, rows, shape.f, cfg.precision)
                for _ in range(result.cg_iterations):
                    eng.launch(spec, tag=tag)
            else:
                eng.host("solve_lu", lu_solver_seconds(self.device, rows, shape.f), tag=tag)

        # Barrier + allgather of the fresh factors over the interconnect.
        barrier = max(e.clock for e in self.engines)
        comm = allgather_time(self.link, shape.m / self.num_gpus * shape.f * 4, self.num_gpus)
        for eng in self.engines:
            eng.sync_to(barrier)
            eng.transfer("allgather", comm, tag="comm")
        return result.factors
