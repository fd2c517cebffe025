"""Tests for the distributed CPU ALS baselines (Table V strategies)."""

import numpy as np
import pytest

from repro.baselines.distributed_als import (
    DistributedALS,
    ReplicationStrategy,
    distributed_comm_bytes,
)
from repro.core import ALSConfig, ALSModel, cholesky_solve_batched, hermitian_rows
from repro.data import get_dataset, load_surrogate

NETFLIX = get_dataset("netflix").paper
YAHOO = get_dataset("yahoomusic").paper


@pytest.fixture(scope="module")
def small():
    split, spec = load_surrogate("netflix", scale=0.08, seed=17)
    return split, spec


class TestCommModel:
    def test_single_node_is_free(self):
        for s in ReplicationStrategy:
            assert distributed_comm_bytes(s, NETFLIX, 1) == 0.0

    def test_full_replication_scales_with_nodes(self):
        b8 = distributed_comm_bytes(ReplicationStrategy.FULL, NETFLIX, 8)
        b16 = distributed_comm_bytes(ReplicationStrategy.FULL, NETFLIX, 16)
        assert b16 == pytest.approx(b8 * 15 / 7)

    def test_partial_cheaper_than_full(self):
        """The SparkALS improvement over PALS the paper cites."""
        full = distributed_comm_bytes(ReplicationStrategy.FULL, NETFLIX, 16)
        part = distributed_comm_bytes(
            ReplicationStrategy.PARTIAL, NETFLIX, 16, coverage=0.6
        )
        assert part < full

    def test_partial_degrades_with_coverage(self):
        lo = distributed_comm_bytes(ReplicationStrategy.PARTIAL, NETFLIX, 16, coverage=0.2)
        hi = distributed_comm_bytes(ReplicationStrategy.PARTIAL, NETFLIX, 16, coverage=0.9)
        assert hi > 4 * lo

    def test_rotation_matches_full_bandwidth(self):
        """Rotation moves the same bytes as full replication — its win is
        never fetching on demand, not volume."""
        full = distributed_comm_bytes(ReplicationStrategy.FULL, NETFLIX, 8)
        rot = distributed_comm_bytes(ReplicationStrategy.ROTATE, NETFLIX, 8)
        assert rot == pytest.approx(full)

    def test_item_heavy_dataset_hurts(self):
        """YahooMusic's n=625K makes every strategy ~35x more expensive
        than Netflix's n=17.8K — the paper's communication-bottleneck
        argument, quantified."""
        net = distributed_comm_bytes(ReplicationStrategy.FULL, NETFLIX, 16)
        yah = distributed_comm_bytes(ReplicationStrategy.FULL, YAHOO, 16)
        assert yah / net > 20

    def test_validation(self):
        with pytest.raises(ValueError):
            distributed_comm_bytes(ReplicationStrategy.FULL, NETFLIX, 0)
        with pytest.raises(ValueError):
            distributed_comm_bytes(ReplicationStrategy.PARTIAL, NETFLIX, 4, coverage=1.5)


class TestDistributedALS:
    def test_numerics_match_single_machine_als(self, small):
        """Strategies change the clock, never the math."""
        split, spec = small
        dist = DistributedALS(ALSConfig(f=16, lam=spec.lam), num_nodes=8)
        c_dist = dist.fit(split.train, split.test, epochs=3)
        from repro.core import SolverKind

        local = ALSModel(
            ALSConfig(f=16, lam=spec.lam, solver=SolverKind.LU)
        ).fit(split.train, split.test, epochs=3)
        assert c_dist.final_rmse == pytest.approx(local.final_rmse, abs=0.01)

    def test_factors_match_seed_composition(self, small):
        """The executor half-step is the hand-rolled hermitian + Cholesky loop."""
        split, spec = small
        cfg = ALSConfig(f=8, lam=spec.lam, seed=5)
        model = DistributedALS(cfg, num_nodes=4)
        model.fit(split.train, epochs=2)
        train, train_t = split.train, split.train.transpose()
        rng = np.random.default_rng(cfg.seed)
        x = rng.normal(0, cfg.init_scale, (train.m, cfg.f)).astype(np.float32)
        theta = rng.normal(0, cfg.init_scale, (train.n, cfg.f)).astype(np.float32)
        for _ in range(2):
            x = cholesky_solve_batched(*hermitian_rows(train, theta, cfg.lam))
            theta = cholesky_solve_batched(*hermitian_rows(train_t, x, cfg.lam))
        assert np.array_equal(model.x_, x)
        assert np.array_equal(model.theta_, theta)

    def test_strategies_identical_numerics(self, small):
        split, spec = small
        finals = []
        for s in ReplicationStrategy:
            model = DistributedALS(
                ALSConfig(f=16, lam=spec.lam), strategy=s, num_nodes=8
            )
            finals.append(model.fit(split.train, split.test, epochs=2).final_rmse)
        assert max(finals) == pytest.approx(min(finals), abs=1e-6)

    def test_comm_fraction_grows_with_nodes(self, small):
        """More nodes shrink compute but not the replicated volume —
        the scaling wall of §I."""
        split, spec = small
        fracs = {}
        for nodes in (4, 32):
            model = DistributedALS(
                ALSConfig(f=100, lam=spec.lam),
                strategy=ReplicationStrategy.FULL,
                num_nodes=nodes,
                sim_shape=spec.paper,
            )
            model.fit(split.train, epochs=1)
            fracs[nodes] = model.comm_fraction()
        assert fracs[32] > fracs[4]

    def test_cumf_beats_distributed_als(self, small):
        """The paper's bottom line: one GPU outruns the CPU cluster."""
        split, spec = small
        dist = DistributedALS(
            ALSConfig(f=100, lam=spec.lam),
            strategy=ReplicationStrategy.PARTIAL,
            num_nodes=16,
            sim_shape=spec.paper,
        )
        c_dist = dist.fit(split.train, epochs=2)
        cumf = ALSModel(ALSConfig(f=100, lam=spec.lam), sim_shape=spec.paper).fit(
            split.train, epochs=2
        )
        assert cumf.total_seconds < c_dist.total_seconds

    def test_unfitted_comm_fraction(self):
        with pytest.raises(RuntimeError):
            DistributedALS().comm_fraction()

    def test_validation(self, small):
        split, _ = small
        with pytest.raises(ValueError):
            DistributedALS(num_nodes=0)
        with pytest.raises(ValueError):
            DistributedALS(threads_per_node=0)
        with pytest.raises(ValueError):
            DistributedALS().fit(split.train, epochs=0)
