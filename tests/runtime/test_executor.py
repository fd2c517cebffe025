"""Tests for the shard executor: determinism, arena steady state, solvers.

The load-bearing property is that the runtime layout is a pure
performance knob.  Numerics are fixed by the plan's kernel pair
(``method``, ``cg_backend``), and two contracts pin them:

* **(a)** ``ORACLE_PLAN`` and each of its layouts are **bit-identical**
  to the raw seed pipeline (``hermitian_and_bias`` + ``cg_solve_batched``
  at their defaults);
* **(b)** each layout of the default pair ``RuntimePlan()`` is
  **bit-identical** to its explicit one-lane run (``shards=1``).

A layout is everything but the kernel pair: shards, in-process lanes,
forked workers, chunk size, arena on or off, CG compaction.  Factors
and CG counters are compared both.  The lane count is
``min(shards, usable_cores(), nnz // LANE_MIN_NNZ)``; the ``threads-*``
layouts pin the core count and lift the work floor, so they run several
lanes on any host.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

import repro.runtime.executor as executor_module
from repro.core.cg import cg_solve_batched
from repro.core.config import CGConfig, Precision, SolverKind
from repro.core.direct import lu_solve_batched
from repro.core.hermitian import hermitian_and_bias, hermitian_rows
from repro.data import SyntheticConfig, generate_ratings
from repro.runtime import (
    ORACLE_PLAN,
    CsrView,
    HalfStepResult,
    RuntimePlan,
    ShardExecutor,
    Workspace,
)

LAM = 0.08
CG = CGConfig(max_iters=5, tol=1e-5)

#: The two kernel pairs: the bit-exact oracle and the default fast pair.
PAIRS = {"oracle": ORACLE_PLAN, "default": RuntimePlan()}

#: Layouts each kernel pair must be invariant to.
LAYOUTS = {
    "serial": dict(shards=1),
    "default": {},
    "sharded-4": dict(shards=4),
    "small-chunks": dict(shards=3, chunk_elems=2_048),
    "no-arena": dict(shards=4, arena=False),
    "compact-cg": dict(shards=2, compact_cg=True),
    "workers-1": dict(shards=4, workers=1),
    "workers-4": dict(shards=4, workers=4),
    "threads-2": dict(shards=2),
    "threads-3-of-7": dict(shards=7),
    "threads-small-chunks": dict(shards=3, chunk_elems=2_048),
    "threads-no-arena": dict(shards=4, arena=False),
    "threads-compact-cg": dict(shards=4, compact_cg=True),
}

#: Usable cores the ``threads-*`` layouts pretend to have, with no work
#: floor per lane (the others run on the host's cores and floor).
CORES = {
    "threads-2": 2,
    "threads-3-of-7": 3,
    "threads-small-chunks": 3,
    "threads-no-arena": 4,
    "threads-compact-cg": 4,
}


def _plan(pair: str, layout: str) -> RuntimePlan:
    return dataclasses.replace(PAIRS[pair], **LAYOUTS[layout])


@pytest.fixture(scope="module")
def problem():
    ratings = generate_ratings(SyntheticConfig(m=80, n=30, nnz=900, seed=5))
    rng = np.random.default_rng(1)
    theta = rng.normal(0, 0.1, (30, 12)).astype(np.float32)
    warm = rng.normal(0, 0.1, (80, 12)).astype(np.float32)
    return ratings, theta, warm


def _half_step(plan, problem, cores=None):
    ratings, theta, warm = problem
    with pytest.MonkeyPatch.context() as patch:
        if cores is not None:
            patch.setattr(executor_module, "usable_cores", lambda: cores)
            patch.setattr(executor_module, "LANE_MIN_NNZ", 1)
        with ShardExecutor(plan) as executor:
            result = executor.half_step(
                ratings, theta, warm, lam=LAM, cg_config=CG,
                precision=Precision.FP16,
            )
            return result.factors.copy(), result.cg_iterations, result.cg_matvec_count


def _layout_step(pair, name, problem):
    return _half_step(_plan(pair, name), problem, CORES.get(name))


@pytest.fixture(scope="module")
def expected(problem):
    """Per kernel pair, the (factors, iterations, matvecs) every layout
    must reproduce: (a) the raw seed pipeline for the oracle pair, (b)
    the explicit one-lane run for the default pair."""
    ratings, theta, warm = problem
    A, b = hermitian_and_bias(ratings, theta, LAM)
    seed = cg_solve_batched(A, b, x0=warm, config=CG, precision=Precision.FP16)
    return {
        "oracle": (seed.x, seed.iterations, seed.matvec_count),
        "default": _half_step(RuntimePlan(shards=1), problem),
    }


def _assert_same(got, want) -> None:
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_bit_identical_to_seed_pipeline(self, problem, expected, name):
        """Contract (a): every oracle layout is the seed pipeline."""
        _assert_same(_layout_step("oracle", name, problem), expected["oracle"])

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_default_pair_bit_identical_to_default_serial(
        self, problem, expected, name
    ):
        """Contract (b): every default-pair layout is the one-lane run."""
        _assert_same(_layout_step("default", name, problem), expected["default"])

    def test_default_pair_is_the_fast_kernels(self):
        assert (PAIRS["default"].method, PAIRS["default"].cg_backend) == (
            "grouped", "fused",
        )
        assert (ORACLE_PLAN.method, ORACLE_PLAN.cg_backend) == (
            "reduceat", "reference",
        )

    def test_repeat_half_steps_stay_identical(self, problem, expected):
        """Contracts (a) and (b): a reused executor keeps reproducing its pair."""
        ratings, theta, warm = problem
        for pair in PAIRS:
            with ShardExecutor(_plan(pair, "sharded-4")) as executor:
                for _ in range(3):
                    result = executor.half_step(
                        ratings, theta, warm, lam=LAM, cg_config=CG,
                        precision=Precision.FP16,
                    )
                    assert np.array_equal(result.factors, expected[pair][0])


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

    def test_every_lane_reports_through_the_workspace(self, problem, monkeypatch):
        """Each lane grows its own arena; ``workspace`` counts them all."""
        ratings, theta, warm = problem
        warm_allocs = {}
        for cores in (1, 3):
            monkeypatch.setattr(executor_module, "usable_cores", lambda: cores)
            monkeypatch.setattr(executor_module, "LANE_MIN_NNZ", 1)
            with ShardExecutor(RuntimePlan(shards=3)) as executor:
                executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
                warm_allocs[cores] = executor.workspace.allocations
                assert sum(ws.allocations for ws in executor._lane_arenas) == 0
                executor.workspace.reset_counters()
                executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
                assert executor.workspace.allocations == 0
                assert executor.workspace.reuses > 0
        assert warm_allocs[3] > warm_allocs[1]

    def test_warm_step_allocates_no_nnz_sized_transient(self):
        """Gathers write their arena buffers directly: NumPy's buffered
        ``take`` would add an nnz·f·4-byte temporary per call."""
        ratings = generate_ratings(SyntheticConfig(m=600, n=200, nnz=20_000, seed=2))
        f = 32
        rng = np.random.default_rng(0)
        theta = rng.normal(0, 0.1, (ratings.n, f)).astype(np.float32)
        warm = rng.normal(0, 0.1, (ratings.m, f)).astype(np.float32)
        ws = Workspace()
        A = np.empty((ratings.m, f, f), np.float32)
        b = np.empty((ratings.m, f), np.float32)
        x = np.empty((ratings.m, f), np.float32)

        def step():
            hermitian_rows(
                ratings, theta, LAM, method="grouped", workspace=ws, out=(A, b)
            )
            cg_solve_batched(
                A, b, x0=warm, config=CG, precision=Precision.FP16,
                workspace=ws, backend="fused", out=x,
            )

        step()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ratings.nnz * f * 4 / 8

    def test_lane_threads_start_lazily_and_close_joins_them(
        self, problem, monkeypatch
    ):
        ratings, theta, warm = problem
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 3)

        def lane_threads():
            return [t for t in threading.enumerate() if t.name.startswith("repro-lane")]

        before = len(lane_threads())
        executor = ShardExecutor(RuntimePlan(shards=3))
        # 900 ratings are too little work for a second lane
        executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
        assert executor._threads is None
        monkeypatch.setattr(executor_module, "LANE_MIN_NNZ", 300)
        executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
        # at most two pool threads: lane 0 is the calling thread
        assert before < len(lane_threads()) <= before + 2
        executor.close()
        assert executor._threads is None
        assert len(lane_threads()) == before

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
    """Each pair's sharded solve equals the full-batch composition of that
    pair's own kernels: the seed kernels for the oracle (contract (a)),
    ``grouped`` + ``fused`` for the default pair (which implies (b))."""

    @staticmethod
    def _normal_equations(problem, plan):
        ratings, theta, _ = problem
        return hermitian_and_bias(ratings, theta, LAM, method=plan.method)

    def test_lu_path_matches_direct_solve(self, problem):
        ratings, theta, _ = problem
        for pair in PAIRS:
            plan = _plan(pair, "serial")
            expected = lu_solve_batched(*self._normal_equations(problem, plan))
            with ShardExecutor(dataclasses.replace(plan, shards=3)) as executor:
                result = executor.half_step(
                    ratings, theta, lam=LAM, solver=SolverKind.LU
                )
                assert np.array_equal(result.factors, expected)
                assert result.cg_iterations == 0
                assert result.cg_matvec_count == 0

    def test_cold_start_without_warm(self, problem):
        ratings, theta, _ = problem
        for pair in PAIRS:
            plan = _plan(pair, "sharded-4")
            expected = cg_solve_batched(
                *self._normal_equations(problem, plan), config=CG,
                precision=Precision.FP16, backend=plan.cg_backend,
            )
            with ShardExecutor(plan) as executor:
                result = executor.half_step(
                    ratings, theta, lam=LAM, cg_config=CG,
                    precision=Precision.FP16,
                )
                assert np.array_equal(result.factors, expected.x)


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

    def test_csr_view_runs_a_half_step(self, problem, expected):
        """Contracts (a) and (b) hold for a bare CSR view too."""
        ratings, theta, warm = problem
        view = CsrView(
            m=ratings.m, n=ratings.n, row_ptr=ratings.row_ptr,
            col_idx=ratings.col_idx, row_val=ratings.row_val,
        )
        for pair in PAIRS:
            plan = dataclasses.replace(PAIRS[pair], shards=2)
            got = _half_step(plan, (view, theta, warm))
            _assert_same(got, expected[pair])

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
    """close() and __del__ drop the pool's shared output blocks, once or
    twice, in any order, and never take back a returned result."""

    def _executor_with_segments(self, problem):
        ratings, theta, warm = problem
        executor = ShardExecutor(RuntimePlan(shards=2, workers=2))
        executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
        assert executor._shm  # the forked run wrote into a shared block
        return executor

    @pytest.mark.filterwarnings("error")
    def test_close_is_idempotent(self, problem):
        ratings, theta, warm = problem
        executor = ShardExecutor(RuntimePlan(shards=2, workers=2))
        result = executor.half_step(ratings, theta, warm, lam=LAM, cg_config=CG)
        factors = result.factors.copy()
        executor.close()
        assert executor._shm == {}
        executor.close()  # second close: nothing to do, nothing raised
        assert executor._shm == {}
        np.testing.assert_array_equal(result.factors, factors)

    @pytest.mark.filterwarnings("error")
    def test_close_then_del_does_not_double_unlink(self, problem):
        executor = self._executor_with_segments(problem)
        executor.close()
        executor.__del__()  # simulates gc after an explicit close

    @pytest.mark.filterwarnings("error")
    def test_del_alone_releases_segments(self, problem):
        executor = self._executor_with_segments(problem)
        executor.__del__()
        assert executor._shm == {}


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
