"""Distributed CPU ALS baselines (paper Table V, §VI-B).

The paper's introduction argues that distributed MF "suffers from the
network communication bottleneck"; Table V catalogues the three ways
CPU clusters distribute ALS, each with a distinct communication pattern
per half-step:

* **full replication** (PALS [38], DALS [32]) — every node holds both
  factor matrices; after updating its row range each node broadcasts
  its slice: allgather of the *whole* updated matrix per half-step.
* **partial replication** (SparkALS [18], GraphLab [17]) — each node
  fetches only the θ rows its local ratings reference.  With Zipf-hot
  items, most nodes need most hot columns, so the expected transfer is
  the union-coverage of each node's item set.
* **rotation** (Facebook [13]) — the item matrix is partitioned and
  rotated around a ring; each node sees every θ block once per
  half-step and never fetches on demand.  Bandwidth-optimal but adds
  (p-1) synchronized hops of latency.

Numerics are the shared exact ALS half-step (an executor Cholesky
half-step, identical across strategies — they differ only in time); the
clock combines a multicore CPU roofline with the α-β network models.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from ..core.config import ALSConfig, SolverKind
from ..data.datasets import WorkloadShape
from ..data.sparse import RatingMatrix
from ..gpusim.cpu import NOMAD_HPC_NODE, CpuSpec, cpu_als_epoch_time
from ..gpusim.device import MAXWELL_TITANX
from ..gpusim.engine import SimEngine
from ..gpusim.interconnect import INFINIBAND_FDR, Link
from ..metrics.convergence import TrainingCurve
from ..metrics.rmse import rmse
from ..runtime.executor import ShardExecutor

__all__ = ["ReplicationStrategy", "DistributedALS", "distributed_comm_bytes"]


class ReplicationStrategy(str, enum.Enum):
    """How the fixed factor matrix reaches the workers."""

    FULL = "full"  # PALS / DALS
    PARTIAL = "partial"  # SparkALS / GraphLab
    ROTATE = "rotate"  # Facebook


#: Framework realism per strategy: (compute efficiency vs the raw BLAS
#: roofline, fixed scheduler/barrier seconds per half-step).  MPI codes
#: (PALS/DALS) run near native; Spark pays JVM+serialization and multi-
#: second stage scheduling; Giraph-style rotation sits between.  These
#: overheads — not FLOPs — are why the paper's single GPU beats clusters.
FRAMEWORK_PROFILE: dict[ReplicationStrategy, tuple[float, float]] = {
    ReplicationStrategy.FULL: (0.5, 0.1),
    ReplicationStrategy.PARTIAL: (0.15, 2.0),
    ReplicationStrategy.ROTATE: (0.25, 1.0),
}


def distributed_comm_bytes(
    strategy: ReplicationStrategy,
    shape: WorkloadShape,
    num_nodes: int,
    *,
    coverage: float = 0.6,
) -> float:
    """Bytes crossing the network per half-step, totaled over all nodes.

    ``coverage`` is the expected fraction of θ rows a node's ratings
    reference under partial replication (Zipf popularity makes this
    large even for balanced partitions — the SparkALS scaling problem).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be within [0, 1]")
    if num_nodes == 1:
        return 0.0
    matrix_bytes = shape.n * shape.f * 4  # the fixed factors being shipped
    if strategy is ReplicationStrategy.FULL:
        # Ring allgather of the updated matrix to every node.
        return matrix_bytes * (num_nodes - 1)
    if strategy is ReplicationStrategy.PARTIAL:
        # Every node fetches its referenced subset.
        return matrix_bytes * coverage * num_nodes
    # ROTATE: each of p blocks of size n/p visits the other p-1 nodes.
    return matrix_bytes * (num_nodes - 1)


@dataclass(frozen=True)
class _StepCost:
    compute: float
    comm: float

    @property
    def total(self) -> float:
        return self.compute + self.comm


class DistributedALS:
    """CPU-cluster ALS with a selectable replication strategy."""

    def __init__(
        self,
        config: ALSConfig | None = None,
        strategy: ReplicationStrategy = ReplicationStrategy.PARTIAL,
        num_nodes: int = 16,
        node: CpuSpec = NOMAD_HPC_NODE,
        link: Link = INFINIBAND_FDR,
        threads_per_node: int = 16,
        sim_shape: WorkloadShape | None = None,
        coverage: float = 0.6,
        framework_efficiency: float | None = None,
        stage_overhead_s: float | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if threads_per_node < 1:
            raise ValueError("threads_per_node must be >= 1")
        profile = FRAMEWORK_PROFILE[strategy]
        self.framework_efficiency = (
            profile[0] if framework_efficiency is None else framework_efficiency
        )
        self.stage_overhead_s = (
            profile[1] if stage_overhead_s is None else stage_overhead_s
        )
        if not 0 < self.framework_efficiency <= 1:
            raise ValueError("framework_efficiency must be in (0, 1]")
        if self.stage_overhead_s < 0:
            raise ValueError("stage_overhead_s must be non-negative")
        self.config = config or ALSConfig(f=32)
        self.strategy = strategy
        self.num_nodes = num_nodes
        self.node = node
        self.link = link
        self.threads_per_node = threads_per_node
        self.sim_shape = sim_shape
        self.coverage = coverage
        self.engine = SimEngine(MAXWELL_TITANX)  # ledger/clock only
        self.runtime = ShardExecutor()
        self.x_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.history_: TrainingCurve | None = None

    # ------------------------------------------------------------------
    def half_step_cost(self, shape: WorkloadShape) -> _StepCost:
        """Seconds for one half-step: parallel compute + network.

        The barrier waits for the slowest node; Zipf-skewed partitions
        make per-node work uneven, so effective parallel time grows by
        ~30% per doubling of the cluster (the straggler term).
        """
        straggler = 1.0 + 0.3 * math.log2(self.num_nodes) if self.num_nodes > 1 else 1.0
        compute = (
            cpu_als_epoch_time(
                self.node, shape.nnz, shape.m, shape.n, shape.f, self.threads_per_node
            )
            / 2.0  # one side of the epoch
            / self.num_nodes
            / self.framework_efficiency
            * straggler
        ) + self.stage_overhead_s
        total_bytes = distributed_comm_bytes(
            self.strategy, shape, self.num_nodes, coverage=self.coverage
        )
        # Per-node share moves in parallel across the bisection.
        comm = (total_bytes / max(1, self.num_nodes)) / self.link.bandwidth
        if self.strategy is ReplicationStrategy.ROTATE:
            comm += (self.num_nodes - 1) * self.link.latency * 10  # sync hops
        elif self.num_nodes > 1:
            comm += math.ceil(math.log2(self.num_nodes)) * self.link.latency
        return _StepCost(compute=compute, comm=comm)

    def fit(
        self,
        train: RatingMatrix,
        test: RatingMatrix | None = None,
        *,
        epochs: int = 10,
        label: str | None = None,
    ) -> TrainingCurve:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.x_ = rng.normal(0, cfg.init_scale, (train.m, cfg.f)).astype(np.float32)
        self.theta_ = rng.normal(0, cfg.init_scale, (train.n, cfg.f)).astype(np.float32)
        curve = TrainingCurve(
            label or f"dist-als/{self.strategy.value}@{self.num_nodes}"
        )
        self.history_ = curve

        base = WorkloadShape(m=train.m, n=train.n, nnz=max(train.nnz, 1), f=cfg.f)
        shape = self.sim_shape or base
        cost_x = self.half_step_cost(shape)
        cost_t = self.half_step_cost(shape.transpose())
        train_t = train.transpose()
        half_step = functools.partial(
            self.runtime.half_step, lam=cfg.lam, solver=SolverKind.LU, direct="cholesky"
        )
        for epoch in range(1, epochs + 1):
            self.x_ = half_step(train, self.theta_, key="x").factors
            self.theta_ = half_step(train_t, self.x_, key="theta").factors
            self.engine.host("dist_compute", cost_x.compute + cost_t.compute, tag="compute")
            self.engine.transfer("dist_comm", cost_x.comm + cost_t.comm, tag="comm")
            test_rmse = rmse(self.x_, self.theta_, test) if test is not None else float("nan")
            curve.record(epoch, self.engine.clock, test_rmse)
        return curve

    def comm_fraction(self) -> float:
        """Fraction of the simulated clock spent on the network."""
        if self.engine.clock == 0:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.engine.seconds_by_tag().get("comm", 0.0) / self.engine.clock
