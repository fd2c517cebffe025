"""Tests for the baseline systems and their cost calibration."""

import numpy as np
import pytest

from repro.baselines import (
    BIDMachALS,
    IMPLICIT_LIB,
    LibMF,
    LibMFConfig,
    Nomad,
    NomadConfig,
    QMF_LIB,
    gpu_als,
    hpc_als,
    implicit_epoch_seconds,
)
from repro.core import ALSConfig, ALSModel, hermitian_rows, lu_solve_batched
from repro.data import WorkloadShape, get_dataset, load_surrogate
from repro.gpusim import KEPLER_K40, MAXWELL_TITANX
from repro.runtime import ORACLE_PLAN, ShardExecutor

NETFLIX = get_dataset("netflix").paper
YAHOO = get_dataset("yahoomusic").paper


@pytest.fixture(scope="module")
def small():
    split, spec = load_surrogate("netflix", scale=0.08, seed=7)
    return split, spec


class TestLibMF:
    def test_epoch_seconds_matches_table4_scale(self):
        """LIBMF converges Netflix in 23 s (~10 epochs): per-epoch ~2-3 s."""
        model = LibMF(LibMFConfig(f=100))
        t = model.epoch_seconds(NETFLIX)
        assert 1.0 < t < 4.0

    def test_converges(self, small):
        """Mean-aware init + blocked SGD reach a good plateau quickly."""
        split, _ = small
        curve = LibMF(LibMFConfig(f=16, lam=0.05)).fit(split.train, split.test, epochs=10)
        assert curve.best_rmse < 1.0
        assert curve.final_rmse < 1.05 * curve.best_rmse  # no divergence

    def test_slower_than_cumf(self, small):
        """Paper Table IV: cuMF_ALS@M beats LIBMF by ~3.5x on Netflix."""
        split, spec = small
        libmf_epoch = LibMF(LibMFConfig(f=100)).epoch_seconds(spec.paper)
        cumf = ALSModel(ALSConfig(f=100), sim_shape=spec.paper).fit(
            split.train, epochs=1
        )
        assert libmf_epoch > cumf.total_seconds  # per-epoch already slower

    def test_validation(self):
        with pytest.raises(ValueError):
            LibMFConfig(threads=0)
        with pytest.raises(ValueError):
            LibMFConfig(lr=-1.0)


class TestNomad:
    def test_netflix_epoch_fast(self):
        t = Nomad(NomadConfig(f=100), num_nodes=32).epoch_seconds(NETFLIX)
        assert t < 1.5  # 32 nodes: ~10 epochs to the 9.6 s of Table IV

    def test_yahoomusic_comm_penalty(self):
        """Paper Table IV: NOMAD is ~11x slower on YahooMusic than Netflix
        despite only 2.5x the ratings — token latency over n=625K items."""
        nomad = Nomad(NomadConfig(f=100), num_nodes=32)
        t_net = nomad.epoch_seconds(NETFLIX)
        t_yah = nomad.epoch_seconds(YAHOO)
        assert t_yah / t_net > 3.0

    def test_converges(self, small):
        split, _ = small
        curve = Nomad(NomadConfig(f=16, lam=0.05), num_nodes=8).fit(
            split.train, split.test, epochs=10
        )
        assert curve.best_rmse < 1.0
        assert curve.final_rmse < 1.05 * curve.best_rmse

    def test_validation(self):
        with pytest.raises(ValueError):
            NomadConfig(threads_per_node=0)


class TestGpuAlsFactories:
    def test_gpu_als_is_coalesced_lu(self):
        from repro.core import Precision, ReadScheme, SolverKind

        model = gpu_als(f=100)
        assert model.config.read_scheme is ReadScheme.COALESCED
        assert model.config.solver is SolverKind.LU
        assert model.config.precision is Precision.FP32

    def test_cumf_2to4x_faster_than_gpu_als(self, small):
        """The paper's headline Figure 1 claim."""
        split, spec = small
        base = gpu_als(f=100, sim_shape=spec.paper).fit(split.train, epochs=2)
        ours = ALSModel(ALSConfig(f=100), sim_shape=spec.paper).fit(
            split.train, epochs=2
        )
        speedup = base.total_seconds / ours.total_seconds
        assert 2.0 < speedup < 5.0

    def test_hpc_als_on_kepler(self):
        model = hpc_als()
        assert model.device is KEPLER_K40

    def test_cumf_2x_faster_than_hpc_als_per_iteration(self, small):
        """Paper §V-C: 'CUMFALS runs twice as fast as HPC-ALS on the same
        hardware (Kepler K40)'."""
        split, spec = small
        hpc = hpc_als(f=100, sim_shape=spec.paper).fit(split.train, epochs=1)
        ours = ALSModel(ALSConfig(f=100), device=KEPLER_K40, sim_shape=spec.paper).fit(
            split.train, epochs=1
        )
        ratio = hpc.total_seconds / ours.total_seconds
        assert 1.4 < ratio < 4.0


class TestBIDMach:
    def test_epoch_seconds_at_40gflops(self):
        model = BIDMachALS(f=100)
        flops = 2.0 * NETFLIX.nnz * 100**2 + (NETFLIX.m + NETFLIX.n) * 100**3 / 3
        assert model.epoch_seconds(NETFLIX) == pytest.approx(flops / 40e9)

    def test_much_slower_than_cumf(self, small):
        split, spec = small
        bid = BIDMachALS(f=100, sim_shape=spec.paper)
        cumf = ALSModel(ALSConfig(f=100), sim_shape=spec.paper).fit(
            split.train, epochs=1
        )
        assert bid.epoch_seconds(spec.paper) > 10 * cumf.total_seconds

    def test_converges_worse_than_weighted_als(self, small):
        """Unweighted λI underfits hot users: plateau above ALS-WR's RMSE
        — the mechanism behind 'BIDMach does not converge' in the paper."""
        split, _ = small
        bid = BIDMachALS(f=16, lam=0.05).fit(split.train, split.test, epochs=6)
        ours = ALSModel(ALSConfig(f=16, lam=0.05)).fit(
            split.train, split.test, epochs=6
        )
        assert bid.best_rmse > ours.best_rmse

    @staticmethod
    def _assert_matches_composition(split, plan=None):
        f, lam, epochs = 8, 0.05, 2
        model = BIDMachALS(f=f, lam=lam, seed=3)
        if plan is not None:
            model.runtime.close()
            model.runtime = ShardExecutor(plan)
        method = model.runtime.plan.method
        model.fit(split.train, epochs=epochs)
        train, train_t = split.train, split.train.transpose()
        rng = np.random.default_rng(3)
        x = rng.normal(0, 0.1, (train.m, f)).astype(np.float32)
        theta = rng.normal(0, 0.1, (train.n, f)).astype(np.float32)
        for _ in range(epochs):
            x = lu_solve_batched(
                *hermitian_rows(train, theta, lam, count_weighted_reg=False, method=method)
            )
            theta = lu_solve_batched(
                *hermitian_rows(train_t, x, lam, count_weighted_reg=False, method=method)
            )
        assert np.array_equal(model.x_, x)
        assert np.array_equal(model.theta_, theta)

    def test_factors_match_seed_composition(self, small):
        """The executor half-step is the hand-rolled hermitian + LU loop,
        built with the model's own (default) plan method: contract (b)."""
        self._assert_matches_composition(small[0])

    def test_oracle_factors_match_seed_kernels(self, small):
        """Under ORACLE_PLAN the model is the seed hermitian + LU loop:
        contract (a)."""
        self._assert_matches_composition(small[0], ORACLE_PLAN)

    def test_validation(self):
        with pytest.raises(ValueError):
            BIDMachALS(f=0)
        with pytest.raises(ValueError):
            BIDMachALS(f=8).fit(None, epochs=0)


class TestImplicitLibraries:
    def test_section5f_ordering(self):
        """cuMF (2.2 s) ≪ implicit (90 s) < QMF (360 s) per iteration."""
        t_impl = implicit_epoch_seconds(IMPLICIT_LIB, NETFLIX)
        t_qmf = implicit_epoch_seconds(QMF_LIB, NETFLIX)
        assert 30 < t_impl < 200
        assert t_qmf > 2.5 * t_impl

    def test_validation(self):
        from repro.baselines import CpuImplicitLibrary

        with pytest.raises(ValueError):
            CpuImplicitLibrary(name="x", core_efficiency=0.0, effective_cores=1)
        with pytest.raises(ValueError):
            CpuImplicitLibrary(name="x", core_efficiency=0.5, effective_cores=0)
