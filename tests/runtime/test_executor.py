"""Tests for the shard executor: determinism, arena steady state, solvers.

The load-bearing property is the ISSUE's acceptance criterion: the same
seed produces **bit-identical** factors whatever the runtime plan —
serial, sharded, forked workers, any chunk size, arena on or off.  The
reference is always the raw seed pipeline (``hermitian_and_bias`` +
``cg_solve_batched``).
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

import repro.runtime.executor as executor_module
from repro.core.cg import cg_solve_batched
from repro.core.config import CGConfig, Precision, SolverKind
from repro.core.direct import lu_solve_batched
from repro.core.hermitian import hermitian_and_bias
from repro.data import SyntheticConfig, generate_ratings
from repro.runtime import CsrView, HalfStepResult, RuntimePlan, ShardExecutor

LAM = 0.08
CG = CGConfig(max_iters=5, tol=1e-5)


@pytest.fixture(scope="module")
def problem():
    ratings = generate_ratings(SyntheticConfig(m=80, n=30, nnz=900, seed=5))
    rng = np.random.default_rng(1)
    theta = rng.normal(0, 0.1, (30, 12)).astype(np.float32)
    warm = rng.normal(0, 0.1, (80, 12)).astype(np.float32)
    return ratings, theta, warm


@pytest.fixture(scope="module")
def reference(problem):
    ratings, theta, warm = problem
    A, b = hermitian_and_bias(ratings, theta, LAM)
    return cg_solve_batched(A, b, x0=warm, config=CG, precision=Precision.FP16)


PLANS = {
    "serial": RuntimePlan(),
    "sharded-4": RuntimePlan(shards=4),
    "small-chunks": RuntimePlan(shards=3, chunk_elems=2_048),
    "no-arena": RuntimePlan(shards=4, arena=False),
    "compact-cg": RuntimePlan(shards=2, compact_cg=True),
    "workers-1": RuntimePlan(shards=4, workers=1),
    "workers-4": RuntimePlan(shards=4, workers=4),
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_bit_identical_to_seed_pipeline(self, problem, reference, name):
        ratings, theta, warm = problem
        executor = ShardExecutor(PLANS[name])
        try:
            result = executor.half_step(
                ratings, theta, warm, lam=LAM, cg_config=CG,
                precision=Precision.FP16,
            )
            assert np.array_equal(result.factors, reference.x)
            assert result.cg_iterations == reference.iterations
            assert result.cg_matvec_count == reference.matvec_count
        finally:
            executor.close()

    def test_repeat_half_steps_stay_identical(self, problem, reference):
        ratings, theta, warm = problem
        executor = ShardExecutor(RuntimePlan(shards=4))
        try:
            for _ in range(3):
                result = executor.half_step(
                    ratings, theta, warm, lam=LAM, cg_config=CG,
                    precision=Precision.FP16,
                )
                assert np.array_equal(result.factors, reference.x)
        finally:
            executor.close()


class TestArenaSteadyState:
    def test_zero_allocations_after_warmup(self, problem):
        """The acceptance criterion: steady-state half-steps allocate nothing."""
        ratings, theta, warm = problem
        executor = ShardExecutor(RuntimePlan(shards=3))
        try:
            executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
            executor.workspace.reset_counters()
            executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
            assert executor.workspace.allocations == 0
            assert executor.workspace.reuses > 0
        finally:
            executor.close()

    def test_no_arena_plan_has_no_workspace(self):
        executor = ShardExecutor(RuntimePlan(arena=False))
        assert executor.workspace is None
        executor.close()

    def test_output_buffer_is_persistent_per_key(self, problem):
        ratings, theta, warm = problem
        executor = ShardExecutor()
        try:
            first = executor.half_step(
                ratings, theta, warm, lam=LAM, cg_config=CG
            ).factors
            second = executor.half_step(
                ratings, theta, warm, lam=LAM, cg_config=CG
            ).factors
            assert first is second  # same buffer, rewritten in place
        finally:
            executor.close()


class TestSolverPaths:
    def test_lu_path_matches_direct_solve(self, problem):
        ratings, theta, _ = problem
        A, b = hermitian_and_bias(ratings, theta, LAM)
        expected = lu_solve_batched(A, b)
        executor = ShardExecutor(RuntimePlan(shards=3))
        try:
            result = executor.half_step(
                ratings, theta, lam=LAM, solver=SolverKind.LU
            )
            assert np.array_equal(result.factors, expected)
            assert result.cg_iterations == 0
            assert result.cg_matvec_count == 0
        finally:
            executor.close()

    def test_cold_start_without_warm(self, problem):
        ratings, theta, _ = problem
        A, b = hermitian_and_bias(ratings, theta, LAM)
        expected = cg_solve_batched(A, b, config=CG, precision=Precision.FP16)
        executor = ShardExecutor(RuntimePlan(shards=4))
        try:
            result = executor.half_step(
                ratings, theta, lam=LAM, cg_config=CG,
                precision=Precision.FP16,
            )
            assert np.array_equal(result.factors, expected.x)
        finally:
            executor.close()


class TestDataTypes:
    def test_csr_view_validates_shapes(self):
        ptr = np.array([0, 2, 3], dtype=np.int64)
        idx = np.array([0, 1, 0], dtype=np.int32)
        val = np.ones(3, dtype=np.float32)
        view = CsrView(m=2, n=2, row_ptr=ptr, col_idx=idx, row_val=val)
        assert view.nnz == 3
        with pytest.raises(ValueError):
            CsrView(m=3, n=2, row_ptr=ptr, col_idx=idx, row_val=val)
        with pytest.raises(ValueError):
            CsrView(m=2, n=2, row_ptr=ptr, col_idx=idx[:2], row_val=val)

    def test_csr_view_runs_a_half_step(self, problem, reference):
        ratings, theta, warm = problem
        view = CsrView(
            m=ratings.m, n=ratings.n, row_ptr=ratings.row_ptr,
            col_idx=ratings.col_idx, row_val=ratings.row_val,
        )
        executor = ShardExecutor(RuntimePlan(shards=2))
        try:
            result = executor.half_step(
                view, theta, warm, lam=LAM, cg_config=CG,
                precision=Precision.FP16,
            )
            assert np.array_equal(result.factors, reference.x)
        finally:
            executor.close()

    def test_half_step_result_validates(self):
        factors = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            HalfStepResult(
                factors=factors, cg_iterations=1, cg_matvec_count=1, shards=0
            )
        with pytest.raises(ValueError):
            HalfStepResult(
                factors=factors, cg_iterations=-1, cg_matvec_count=0, shards=1
            )


class TestTeardown:
    """close() / __del__ racing must unlink each shm segment exactly once."""

    def _executor_with_segments(self, problem):
        ratings, theta, warm = problem
        executor = ShardExecutor(RuntimePlan(shards=2, workers=2))
        executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
        assert executor._shm  # the forked run staged factors in shm
        return executor

    @pytest.mark.filterwarnings("error")
    def test_close_is_idempotent(self, problem):
        executor = self._executor_with_segments(problem)
        names = [blk.name for blk in executor._shm.values()]
        executor.close()
        assert executor._shm == {}
        executor.close()  # second close: nothing to do, nothing raised
        from multiprocessing import shared_memory
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @pytest.mark.filterwarnings("error")
    def test_close_then_del_does_not_double_unlink(self, problem):
        executor = self._executor_with_segments(problem)
        executor.close()
        executor.__del__()  # simulates gc after an explicit close

    @pytest.mark.filterwarnings("error")
    def test_del_alone_releases_segments(self, problem):
        executor = self._executor_with_segments(problem)
        names = [blk.name for blk in executor._shm.values()]
        executor.__del__()
        from multiprocessing import shared_memory
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


def _half_step_reporting(problem, conn) -> None:
    """Scenario process: one unsupervised pool half-step, outcome sent back."""
    ratings, theta, warm = problem
    try:
        with ShardExecutor(RuntimePlan(shards=2, workers=2)) as executor:
            executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
        conn.send(("returned", ""))
    except Exception as exc:
        conn.send((type(exc).__name__, str(exc)))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestUnsupervisedPoolDeath:
    """Without a SupervisionPolicy a dead worker fails the half-step."""

    def test_dead_worker_raises_naming_the_shard(self, problem, monkeypatch):
        real = executor_module.hermitian_rows

        def kill_second_shard(*args, **kwargs):
            if kwargs["rows"].start > 0:  # only shard 1 of 2 starts past row 0
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "hermitian_rows", kill_second_shard)
        # The half-step runs in its own process under a wall-clock bound,
        # so a hang fails this test instead of blocking the suite.
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        scenario = ctx.Process(target=_half_step_reporting, args=(problem, send))
        scenario.start()
        send.close()
        try:
            assert recv.poll(60), "half_step hung on a dead worker"
            kind, message = recv.recv()
        finally:
            scenario.kill()
            scenario.join(timeout=10)
        assert kind == "RuntimeError"
        assert "shard 1 of half-step 0" in message
        assert "pipe EOF" in message
