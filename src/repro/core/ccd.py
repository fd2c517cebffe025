"""CCD++ — cyclic coordinate descent MF (paper §VI-B, refs [36], [20]).

CCD++ (Yu et al., ICDM'12) updates one latent feature at a time: with
the rank-one residual ``ê_uv = r_uv − x_uᵀθ_v + x_ut·θ_vt`` the feature-t
updates have closed forms::

    x_ut = Σ_{v∈Ω_u} ê_uv θ_vt / (λ + Σ_{v∈Ω_u} θ_vt²)
    θ_vt = Σ_{u∈Ω_v} ê_uv x_ut / (λ + Σ_{u∈Ω_v} x_ut²)

The paper cites it as lower-complexity but less-progress-per-epoch than
ALS; Nisa et al. [20] port it to GPUs.  This implementation maintains
the residual over the nonzeros incrementally (O(Nz) per feature), so an
epoch is O(Nz·f) — the same order as SGD and cheaper than ALS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.datasets import WorkloadShape
from ..data.sparse import RatingMatrix
from ..gpusim.device import MAXWELL_TITANX, DeviceSpec
from ..gpusim.engine import SimEngine
from ..metrics.convergence import TrainingCurve
from ..metrics.rmse import rmse
from ..runtime.arena import Workspace
from .scratch import check_indices

__all__ = ["CCDConfig", "CCDModel", "ccd_epoch_seconds"]


@dataclass(frozen=True)
class CCDConfig:
    """CCD++ knobs: rank, regularization, inner sweeps per feature."""

    f: int = 40
    lam: float = 0.05
    #: Inner rank-one sweeps per feature; Yu et al. use ~5, 2 suffices here.
    inner_sweeps: int = 2
    seed: int = 0
    #: Small init: features are fitted greedily one at a time, so starting
    #: near zero lets early features capture the dominant structure.
    init_scale: float = 0.01

    def __post_init__(self) -> None:
        if self.f <= 0:
            raise ValueError("f must be positive")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.inner_sweeps <= 0:
            raise ValueError("inner_sweeps must be positive")


def ccd_epoch_seconds(device: DeviceSpec, shape: WorkloadShape) -> float:
    """GPU CCD++ epoch cost: O(Nz·f) streaming passes, memory-bound.

    Per feature, the residual array (Nz floats) is read and written and
    both factor columns are gathered/scattered — ~16 bytes per nonzero
    per feature after cache absorption (Nisa et al.'s fused kernels).
    """
    bytes_per_feature = 16.0 * shape.nnz
    return shape.f * bytes_per_feature / (device.dram_bandwidth * 0.7)


class CCDModel:
    """CCD++ trainer with residual maintenance and simulated GPU timing."""

    def __init__(
        self,
        config: CCDConfig | None = None,
        device: DeviceSpec = MAXWELL_TITANX,
        sim_shape: WorkloadShape | None = None,
        guard: object | None = None,
    ) -> None:
        self.config = config or CCDConfig()
        self.device = device
        self.sim_shape = sim_shape
        # Optional GuardPolicy (repro.resilience.guards): with one set, each
        # epoch's factors pass a finiteness sentinel that raises
        # NumericalFault with row provenance instead of silently emitting
        # NaN (rank-one updates divide by λ + Σθ², which λ=0 plus an empty
        # row turns into 0/0).  None keeps the loop overhead-free.
        self.guard = guard
        self.engine = SimEngine(device)
        # The f·inner_sweeps rank-one updates per epoch each need five
        # nnz-length scratch vectors plus the four accumulators; staging
        # them in an arena keeps steady-state epochs allocation-free.
        self.workspace = Workspace()
        self.x_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.history_: TrainingCurve | None = None

    def fit(
        self,
        train: RatingMatrix,
        test: RatingMatrix | None = None,
        *,
        epochs: int = 10,
        label: str = "CCD++",
    ) -> TrainingCurve:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        m, n = train.m, train.n
        self.x_ = rng.normal(0, cfg.init_scale, (m, cfg.f)).astype(np.float32)
        self.theta_ = rng.normal(0, cfg.init_scale, (n, cfg.f)).astype(np.float32)

        rows = np.repeat(np.arange(m), train.row_counts())
        cols = train.col_idx.astype(np.int64)
        check_indices(cols, n, "column")  # the gathers below run unchecked
        vals = train.row_val.astype(np.float32)
        # Residual e = r − xᵀθ over the nonzeros, maintained incrementally.
        resid = vals - np.einsum(
            "kf,kf->k", self.x_[rows], self.theta_[cols]
        ).astype(np.float32)

        shape = self.sim_shape or WorkloadShape(m=m, n=n, nnz=max(train.nnz, 1), f=cfg.f)
        secs = ccd_epoch_seconds(self.device, shape) * cfg.inner_sweeps
        curve = TrainingCurve(label)
        self.history_ = curve

        lam = np.float32(cfg.lam)
        ws = self.workspace
        k = rows.shape[0]
        e_hat = ws.request("ccd.e_hat", (k,))
        xrow = ws.request("ccd.xrow", (k,))  # gathered x_t[rows]
        tcol = ws.request("ccd.tcol", (k,))  # gathered θ_t[cols]
        tmp = ws.request("ccd.tmp", (k,))
        num_x = ws.request("ccd.num_x", (m,))
        den_x = ws.request("ccd.den_x", (m,))
        num_t = ws.request("ccd.num_t", (n,))
        den_t = ws.request("ccd.den_t", (n,))
        xt = ws.request("ccd.xt", (m,))
        tt = ws.request("ccd.tt", (n,))
        for epoch in range(1, epochs + 1):
            for t in range(cfg.f):
                np.copyto(xt, self.x_[:, t])
                np.copyto(tt, self.theta_[:, t])
                for _ in range(cfg.inner_sweeps):
                    # Rank-one residual: add the feature's contribution back.
                    np.take(xt, rows, out=xrow, mode="clip")
                    np.take(tt, cols, out=tcol, mode="clip")
                    np.multiply(xrow, tcol, out=e_hat)
                    np.add(resid, e_hat, out=e_hat)
                    # Update x_t: per-row weighted least squares.
                    num_x.fill(0)
                    den_x.fill(lam)
                    np.multiply(e_hat, tcol, out=tmp)
                    np.add.at(num_x, rows, tmp)
                    np.multiply(tcol, tcol, out=tmp)
                    np.add.at(den_x, rows, tmp)
                    np.divide(num_x, den_x, out=xt)
                    # Update θ_t with the fresh x_t.
                    np.take(xt, rows, out=xrow, mode="clip")
                    num_t.fill(0)
                    den_t.fill(lam)
                    np.multiply(e_hat, xrow, out=tmp)
                    np.add.at(num_t, cols, tmp)
                    np.multiply(xrow, xrow, out=tmp)
                    np.add.at(den_t, cols, tmp)
                    np.divide(num_t, den_t, out=tt)
                    np.take(tt, cols, out=tcol, mode="clip")
                    np.multiply(xrow, tcol, out=tmp)
                    np.subtract(e_hat, tmp, out=resid)
                self.x_[:, t] = xt
                self.theta_[:, t] = tt
            self.engine.host("ccd_epoch", secs, tag="ccd")
            if self.guard is not None:
                self.guard.check_factors(self.x_, stage="ccd-x")
                self.guard.check_factors(self.theta_, stage="ccd-theta")
            test_rmse = rmse(self.x_, self.theta_, test) if test is not None else float("nan")
            curve.record(epoch, self.engine.clock, test_rmse)
        return curve

    def train_rmse_from_residual(self, train: RatingMatrix) -> float:
        """Cheap train RMSE from the predicted factors (for tests)."""
        if self.x_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return rmse(self.x_, self.theta_, train)
