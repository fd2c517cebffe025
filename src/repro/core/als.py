"""CUMFALS: the paper's ALS trainer with simulated GPU timing.

:class:`ALSModel` alternates the two half-steps of §II:

* **update-X** — form A_u, b_u for every user (``get_hermitian`` +
  ``get_bias``) and solve the m systems;
* **update-Θ** — the same on Rᵀ for every item.

All numerics are real NumPy; simultaneously every kernel is *priced* on a
:class:`~repro.gpusim.engine.SimEngine` so training curves carry the
simulated seconds of a chosen GPU.  The cost model can be driven at a
different (e.g. paper-scale) :class:`~repro.data.datasets.WorkloadShape`
than the numeric surrogate — that is how benches report Netflix-size
seconds while computing on a laptop-size surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data.datasets import WorkloadShape
from ..data.sparse import RatingMatrix
from ..gpusim.device import MAXWELL_TITANX, DeviceSpec
from ..gpusim.engine import SimEngine
from ..metrics.convergence import TrainingCurve
from ..metrics.rmse import predict_entries, rmse
from ..resilience.checkpoint import (
    Checkpoint,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from ..resilience.faults import NumericalFault
from ..runtime.executor import ShardExecutor
from ..runtime.plan import RuntimePlan
from .config import ALSConfig, Precision, SolverKind
from .kernels import bias_spec, cg_iteration_spec, hermitian_spec, lu_solver_seconds

__all__ = ["ALSModel", "EpochBreakdown"]


def _ledger_sum(records, *names: str) -> float:
    """Sum the seconds of ledger ``records`` whose name is in ``names``."""
    wanted = set(names)
    return sum(r.seconds for r in records if r.name in wanted)


@dataclass(frozen=True)
class EpochBreakdown:
    """Simulated seconds of one epoch, split the way Figure 5 reports."""

    get_hermitian: float
    get_bias: float
    solve: float

    @property
    def total(self) -> float:
        return self.get_hermitian + self.get_bias + self.solve


class ALSModel:
    """Matrix factorization via ALS on a simulated GPU.

    Parameters
    ----------
    config:
        Algorithmic knobs (f, λ, solver, precision, read scheme).
    device:
        GPU preset used for timing; defaults to the paper's Maxwell.
    sim_shape:
        Workload shape fed to the cost model.  ``None`` prices the actual
        training data.
    engine:
        Optional externally owned :class:`SimEngine` (multi-GPU driver).
    runtime:
        Host execution strategy: a :class:`~repro.runtime.plan.RuntimePlan`
        (or a ready :class:`~repro.runtime.executor.ShardExecutor`) that
        controls the kernel pair, chunking, sharding, workers and
        workspace reuse.  The default plan runs the fast ``grouped`` +
        ``fused`` kernels; :data:`~repro.runtime.plan.ORACLE_PLAN` is
        bit-identical to computing the half-steps with the seed kernels.
        Within one kernel pair every layout produces bit-identical
        factors (the VF107 invariant), so the layout is purely a
        wall-clock knob.
    """

    def __init__(
        self,
        config: ALSConfig | None = None,
        device: DeviceSpec = MAXWELL_TITANX,
        sim_shape: WorkloadShape | None = None,
        engine: SimEngine | None = None,
        runtime: RuntimePlan | ShardExecutor | None = None,
    ) -> None:
        self.config = config or ALSConfig()
        self.device = device
        self.sim_shape = sim_shape
        self.engine = engine or SimEngine(device)
        self.runtime = (
            runtime
            if isinstance(runtime, ShardExecutor)
            else ShardExecutor(runtime or RuntimePlan())
        )
        self.x_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.history_: TrainingCurve | None = None
        self.epoch_breakdowns_: list[EpochBreakdown] = []
        # The degradation ladder escalates this *working* config
        # (FP16→FP32, then CG→LU) without mutating the user's config.
        self._active = self.config

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def fit(
        self,
        train: RatingMatrix,
        test: RatingMatrix | None = None,
        *,
        epochs: int = 10,
        target_rmse: float | None = None,
        label: str | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 1,
        checkpoint_keep: int | None = None,
        resume: bool = False,
    ) -> TrainingCurve:
        """Train until ``epochs`` or until test RMSE ≤ ``target_rmse``.

        Returns the :class:`TrainingCurve` of (simulated seconds, RMSE)
        samples; also stored as ``self.history_``.

        With ``checkpoint_dir``, an atomic checkpoint (factors, RNG
        state, clock, curve, breakdowns, health log) is written every
        ``checkpoint_every`` completed epochs; ``resume=True`` restores
        the newest one and continues from the following epoch.  Because
        each epoch is a deterministic function of the factors entering
        it, a resumed run is bit-equivalent to an uninterrupted one.
        ``checkpoint_keep`` bounds retention: after each save, all but
        the newest ``checkpoint_keep`` checkpoints are pruned (oldest
        first, so a crash mid-prune never removes the newest valid
        checkpoint); ``None`` keeps every checkpoint.

        When the runtime executor carries a
        :class:`~repro.resilience.guards.GuardPolicy`, an epoch whose
        training objective diverges (non-finite, or worse than
        ``divergence_factor ×`` the best seen) is rolled back and
        retried down the degradation ladder — FP16→FP32, then CG→LU,
        then a structured :class:`NumericalFault`.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if target_rmse is not None and test is None:
            raise ValueError("target_rmse requires a test set")
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if checkpoint_keep is not None and checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1 (or None to keep all)")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        cfg = self.config
        self._active = cfg
        rng = np.random.default_rng(cfg.seed)
        self.x_ = rng.normal(0, cfg.init_scale, (train.m, cfg.f)).astype(np.float32)
        self.theta_ = rng.normal(0, cfg.init_scale, (train.n, cfg.f)).astype(
            np.float32
        )
        curve = TrainingCurve(label or f"cumf_als@{self.device.generation}")
        self.history_ = curve
        self.epoch_breakdowns_ = []
        guard = getattr(self.runtime, "guard", None)
        health = getattr(self.runtime, "health", None)

        start_epoch = 0
        if resume:
            start_epoch = self._restore_checkpoint(
                checkpoint_dir, rng, curve, health, max_epoch=epochs
            )

        train_t = train.transpose()
        best_obj = float("inf")
        epoch = start_epoch
        while epoch < epochs:
            epoch += 1
            if guard is not None:
                prev_x, prev_theta = self.x_.copy(), self.theta_.copy()
            # Bookmark the ledger and price the epoch from its own records
            # only: unlike differencing cumulative totals, a fresh per-epoch
            # sum is independent of everything before the epoch, so a
            # checkpoint-resumed run (empty ledger) reproduces the same
            # breakdowns bit-for-bit.
            mark = len(self.engine.records)

            self.x_ = self._half_step(train, self.theta_, self.x_, side="x")
            self.theta_ = self._half_step(train_t, self.x_, self.theta_, side="theta")

            epoch_records = self.engine.records[mark:]
            self.epoch_breakdowns_.append(
                EpochBreakdown(
                    get_hermitian=_ledger_sum(epoch_records, "get_hermitian"),
                    get_bias=_ledger_sum(epoch_records, "get_bias"),
                    solve=_ledger_sum(epoch_records, "cg_iteration", "solve_lu"),
                )
            )
            train_rmse = rmse(self.x_, self.theta_, train)
            if guard is not None:
                diverged = not np.isfinite(train_rmse) or (
                    train_rmse > guard.divergence_factor * best_obj
                )
                if diverged:
                    detail = self._escalate(train_rmse)
                    if health is not None:
                        health.record("guard.divergence", detail=detail)
                    # Roll the epoch back and retry it one rung down the
                    # ladder.  The simulated clock keeps the wasted epoch
                    # (recoveries cost real time); the factors do not.
                    self.x_, self.theta_ = prev_x, prev_theta
                    self.epoch_breakdowns_.pop()
                    epoch -= 1
                    continue
                best_obj = min(best_obj, train_rmse)
            test_rmse = rmse(self.x_, self.theta_, test) if test is not None else float("nan")
            curve.record(
                epoch,
                self.engine.clock,
                test_rmse,
                train_rmse=train_rmse,
            )
            if checkpoint_dir is not None and (
                epoch % checkpoint_every == 0 or epoch == epochs
            ):
                self._write_checkpoint(
                    checkpoint_dir, epoch, rng, curve, health,
                    keep_last=checkpoint_keep,
                )
            if target_rmse is not None and test_rmse <= target_rmse:
                break
        return curve

    def predict(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted ratings for (user, item) index arrays."""
        self._check_fitted()
        return predict_entries(self.x_, self.theta_, rows, cols)

    def score(self, ratings: RatingMatrix) -> float:
        """RMSE over the observed entries of ``ratings``."""
        self._check_fitted()
        return rmse(self.x_, self.theta_, ratings)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.x_ is None or self.theta_ is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def _escalate(self, objective: float) -> str:
        """Advance the degradation ladder; raise once it is exhausted."""
        active = self._active
        if active.precision is Precision.FP16:
            self._active = replace(active, precision=Precision.FP32)
            return f"objective {objective:g} diverged; escalating FP16→FP32"
        if active.solver is SolverKind.CG:
            self._active = replace(active, solver=SolverKind.LU)
            return f"objective {objective:g} diverged; falling back CG→LU"
        raise NumericalFault(
            f"training objective diverged to {objective:g} with the exact LU "
            "solver at FP32 — the ladder is exhausted; the input data or "
            "regularization is numerically unusable",
            stage="objective",
        )

    def _restore_checkpoint(
        self, checkpoint_dir, rng, curve: TrainingCurve, health, *, max_epoch: int
    ) -> int:
        """Restore the newest checkpoint; returns the completed epoch."""
        path = latest_checkpoint(checkpoint_dir)
        if path is None:
            return 0
        ckpt = load_checkpoint(path)
        self.x_ = np.ascontiguousarray(ckpt.x, dtype=np.float32)
        self.theta_ = np.ascontiguousarray(ckpt.theta, dtype=np.float32)
        if ckpt.rng_state:
            rng.bit_generator.state = ckpt.rng_state
        self.engine.clock = ckpt.clock
        for p in ckpt.curve:
            curve.record(
                int(p["epoch"]),
                float(p["seconds"]),
                float(p["rmse"]),
                train_rmse=(
                    None if p.get("train_rmse") is None else float(p["train_rmse"])
                ),
            )
        self.epoch_breakdowns_ = [EpochBreakdown(**bd) for bd in ckpt.breakdowns]
        extra = ckpt.extra
        if extra.get("precision"):
            self._active = replace(
                self._active, precision=Precision(extra["precision"])
            )
        if extra.get("solver"):
            self._active = replace(self._active, solver=SolverKind(extra["solver"]))
        if health is not None:
            health.extend(ckpt.health)
            health.record("checkpoint.resumed", detail=path)
        return min(ckpt.epoch, max_epoch)

    def _write_checkpoint(
        self, checkpoint_dir, epoch: int, rng, curve: TrainingCurve, health,
        *, keep_last: int | None = None,
    ) -> str:
        ckpt = Checkpoint(
            epoch=epoch,
            x=self.x_,
            theta=self.theta_,
            clock=self.engine.clock,
            rng_state=rng.bit_generator.state,
            curve=[
                {
                    "epoch": p.epoch,
                    "seconds": p.seconds,
                    "rmse": p.rmse,
                    "train_rmse": p.train_rmse,
                }
                for p in curve.points
            ],
            breakdowns=[
                {
                    "get_hermitian": b.get_hermitian,
                    "get_bias": b.get_bias,
                    "solve": b.solve,
                }
                for b in self.epoch_breakdowns_
            ],
            health=[] if health is None else [e.as_dict() for e in health.events],
            extra={
                "precision": self._active.precision.value,
                "solver": self._active.solver.value,
            },
        )
        path = save_checkpoint(checkpoint_dir, ckpt)
        prune_checkpoints(checkpoint_dir, keep_last)
        if health is not None:
            health.record("checkpoint.saved", detail=path)
        return path

    def _solver_seconds(self) -> float:
        return self.engine.total_seconds("cg_iteration") + self.engine.total_seconds(
            "solve_lu"
        )

    def _cost_shape(self, data_shape: WorkloadShape, side: str) -> WorkloadShape:
        base = self.sim_shape or data_shape
        return base if side == "x" else base.transpose()

    def _half_step(
        self,
        ratings: RatingMatrix,
        fixed: np.ndarray,
        warm: np.ndarray,
        *,
        side: str,
    ) -> np.ndarray:
        """One ALS half-step: build the normal equations and solve them."""
        cfg = self._active  # the config after any ladder escalations
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

        # Price the two formation kernels.  The cost shape is in the
        # "rows being updated" orientation.
        data_shape = WorkloadShape(
            m=ratings.m, n=ratings.n, nnz=max(ratings.nnz, 1), f=cfg.f
        )
        shape = self._cost_shape(
            data_shape if side == "x" else data_shape.transpose(), side
        )
        tag = f"update_{side}"
        self.engine.launch(hermitian_spec(self.device, shape, cfg), tag=tag)
        self.engine.launch(bias_spec(self.device, shape), tag=tag)

        # Price the solve.
        if cfg.solver is SolverKind.CG:
            spec = cg_iteration_spec(self.device, shape.m, shape.f, cfg.precision)
            for _ in range(result.cg_iterations):
                self.engine.launch(spec, tag=tag)
        else:
            self.engine.host(
                "solve_lu", lu_solver_seconds(self.device, shape.m, shape.f), tag=tag
            )
        return result.factors
