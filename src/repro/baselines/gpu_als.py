"""GPU ALS baselines: GPU-ALS (HPDC'16) and HPC-ALS (Gates et al.).

Both are configuration points of the same ALS engine — which is exactly
the paper's framing (Figure 1: cuMF_ALS = GPU-ALS + memory optimization
+ approximate computing):

* **GPU-ALS** [31] — the authors' earlier system: register/shared-memory
  hermitian kernel but *coalesced* staging reads, exact LU solver, FP32
  everywhere.
* **HPC-ALS** [8] — Gates et al.'s single-GPU ALS: same ingredients as
  GPU-ALS (registers + shared memory, no non-coalesced read, no
  approximate solver, no reduced precision), evaluated on Kepler K40 in
  the paper's per-iteration comparison.
* **BIDMach** [2] — generic sparse kernels, not ALS-specialized: its ALS
  runs at ~40 GFLOPS (as the paper measures) and uses unweighted λI
  regularization, which is why it "does not converge to the acceptable
  level" on Netflix with the standard λ.
"""

from __future__ import annotations

import functools

import numpy as np

from ..data.datasets import WorkloadShape
from ..data.sparse import RatingMatrix
from ..gpusim.device import KEPLER_K40, MAXWELL_TITANX, DeviceSpec
from ..gpusim.engine import SimEngine
from ..metrics.convergence import TrainingCurve
from ..metrics.rmse import rmse
from ..core.als import ALSModel
from ..core.config import ALSConfig, Precision, ReadScheme, SolverKind
from ..runtime.executor import ShardExecutor

__all__ = ["gpu_als", "hpc_als", "BIDMachALS", "BIDMACH_ALS_GFLOPS"]

#: The kernel throughput the paper measures for BIDMach's ALS.
BIDMACH_ALS_GFLOPS = 40.0


def gpu_als(
    f: int = 100,
    lam: float = 0.05,
    device: DeviceSpec = MAXWELL_TITANX,
    sim_shape: WorkloadShape | None = None,
    **kwargs,
) -> ALSModel:
    """The paper's GPU-ALS [31] baseline (no memopt, no approximation)."""
    cfg = ALSConfig(
        f=f,
        lam=lam,
        solver=SolverKind.LU,
        precision=Precision.FP32,
        read_scheme=ReadScheme.COALESCED,
        **kwargs,
    )
    return ALSModel(cfg, device=device, sim_shape=sim_shape)


def hpc_als(
    f: int = 100,
    lam: float = 0.05,
    device: DeviceSpec = KEPLER_K40,
    sim_shape: WorkloadShape | None = None,
    **kwargs,
) -> ALSModel:
    """HPC-ALS [8]: register/smem-tiled hermitian, coalesced reads, exact
    solver; compared on Kepler in the paper."""
    cfg = ALSConfig(
        f=f,
        lam=lam,
        solver=SolverKind.LU,
        precision=Precision.FP32,
        read_scheme=ReadScheme.COALESCED,
        **kwargs,
    )
    return ALSModel(cfg, device=device, sim_shape=sim_shape)


class BIDMachALS:
    """BIDMach-like ALS: generic sparse kernels + unweighted regularizer.

    Timing charges every epoch at :data:`BIDMACH_ALS_GFLOPS`; numerics use
    plain (count-independent) λI regularization — both faithful to why the
    paper excludes it from Table IV.
    """

    def __init__(
        self,
        f: int = 100,
        lam: float = 0.05,
        device: DeviceSpec = MAXWELL_TITANX,
        sim_shape: WorkloadShape | None = None,
        seed: int = 0,
    ) -> None:
        if f <= 0:
            raise ValueError("f must be positive")
        self.f = f
        self.lam = lam
        self.device = device
        self.sim_shape = sim_shape
        self.seed = seed
        self.engine = SimEngine(device)
        self.runtime = ShardExecutor()
        self.x_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.history_: TrainingCurve | None = None

    def epoch_seconds(self, shape: WorkloadShape) -> float:
        flops = 2.0 * shape.nnz * shape.f**2 + (shape.m + shape.n) * shape.f**3 / 3.0
        return flops / (BIDMACH_ALS_GFLOPS * 1e9)

    def fit(
        self,
        train: RatingMatrix,
        test: RatingMatrix | None = None,
        *,
        epochs: int = 10,
        label: str = "BIDMach",
    ) -> TrainingCurve:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        rng = np.random.default_rng(self.seed)
        self.x_ = rng.normal(0, 0.1, (train.m, self.f)).astype(np.float32)
        self.theta_ = rng.normal(0, 0.1, (train.n, self.f)).astype(np.float32)
        curve = TrainingCurve(label)
        self.history_ = curve
        shape = self.sim_shape or WorkloadShape(
            m=train.m, n=train.n, nnz=max(train.nnz, 1), f=self.f
        )
        secs = self.epoch_seconds(shape)
        train_t = train.transpose()
        # Exact LU half-steps under BIDMach's count-independent λI.
        half_step = functools.partial(
            self.runtime.half_step, lam=self.lam, solver=SolverKind.LU, count_weighted_reg=False
        )
        for epoch in range(1, epochs + 1):
            self.x_ = half_step(train, self.theta_, key="x").factors
            self.theta_ = half_step(train_t, self.x_, key="theta").factors
            self.engine.host("bidmach_epoch", secs, tag="bidmach")
            test_rmse = rmse(self.x_, self.theta_, test) if test is not None else float("nan")
            curve.record(epoch, self.engine.clock, test_rmse)
        return curve
