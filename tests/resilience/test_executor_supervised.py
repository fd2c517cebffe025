"""Supervised ShardExecutor: kills, retries, deadlines, degradation.

Pool tests inject *real* SIGKILLs into fork workers, so they are kept
small (80×30, 900 nnz) and use millisecond backoffs.  Fault accounting
(``account``) is only asserted where every injected fault is
guaranteed to be observed — a worker killed mid-delay loses its delay
event, so the deadline test checks kinds, not the full ledger.
"""

import multiprocessing
import sys

import numpy as np
import pytest

from repro.core.config import CGConfig, Precision
from repro.data import SyntheticConfig, generate_ratings
import repro.runtime.executor as executor_module
from repro.resilience.faults import (
    FaultPlan,
    InjectedWorkerKill,
    account,
    expected_fault_events,
)
from repro.resilience.guards import GuardPolicy
from repro.resilience.health import RunHealth
from repro.runtime import RuntimePlan, ShardExecutor
from repro.runtime.plan import SupervisionPolicy
from repro.serving.fleet import FleetConfig
from repro.runtime.supervisor import backoff

LAM = 0.08
CG = CGConfig(max_iters=5, tol=1e-5)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

FAST = SupervisionPolicy(backoff_seconds=0.001, shard_deadline=60.0)


@pytest.fixture(scope="module")
def problem():
    ratings = generate_ratings(SyntheticConfig(m=80, n=30, nnz=900, seed=5))
    rng = np.random.default_rng(1)
    theta = rng.normal(0, 0.1, (30, 12)).astype(np.float32)
    warm = rng.normal(0, 0.1, (80, 12)).astype(np.float32)
    return ratings, theta, warm


def run_steps(executor, problem, steps=2):
    ratings, theta, warm = problem
    result = None
    for _ in range(steps):
        result = executor.half_step(
            ratings, theta, warm, lam=LAM, cg_config=CG,
            precision=Precision.FP32,
        )
    return result


class TestSerialSupervised:
    def test_kills_are_retried_and_fully_accounted(self, problem):
        faults = FaultPlan(seed=11, kill_rate=0.4, delay_rate=0.3, delay_seconds=0.0)
        health = RunHealth()
        with ShardExecutor(
            RuntimePlan(shards=4), supervision=FAST, faults=faults, health=health,
        ) as executor:
            result = run_steps(executor, problem, steps=3)
            expected = expected_fault_events(faults, executor.spans_log)
        assert np.isfinite(result.factors).all()
        assert expected, "fault plan was expected to fire at these rates"
        missing, extra = account(expected, health.fault_events())
        assert (missing, extra) == ([], [])
        kills = health.counts().get("fault.worker-kill", 0)
        assert health.counts().get("supervise.retry", 0) == kills

    def test_retry_budget_exhaustion_raises(self, problem):
        faults = FaultPlan(seed=0, kill_rate=1.0)
        policy = SupervisionPolicy(max_retries=0, backoff_seconds=0.0)
        with ShardExecutor(
            RuntimePlan(shards=2), supervision=policy, faults=faults,
        ) as executor:
            with pytest.raises(Exception, match="kill|injected"):
                run_steps(executor, problem, steps=1)

    def test_supervised_clean_run_matches_unsupervised(self, problem):
        plan = RuntimePlan(shards=3)
        with ShardExecutor(plan) as plain:
            ref = run_steps(plain, problem, steps=1)
        with ShardExecutor(plan, supervision=FAST, guard=GuardPolicy()) as sup:
            out = run_steps(sup, problem, steps=1)
        np.testing.assert_array_equal(out.factors, ref.factors)
        assert (out.cg_iterations, out.cg_matvec_count) == (
            ref.cg_iterations, ref.cg_matvec_count,
        )


@needs_fork
class TestThreadedLanes:
    """In-process lanes report exactly what the one-lane loop reports."""

    @staticmethod
    def _run(problem, monkeypatch, cores, faults, policy=FAST, steps=3, shards=5):
        monkeypatch.setattr(executor_module, "usable_cores", lambda: cores)
        monkeypatch.setattr(executor_module, "LANE_MIN_NNZ", 1)
        health = RunHealth()
        error = None
        with ShardExecutor(
            RuntimePlan(shards=shards), supervision=policy, faults=faults,
            guard=GuardPolicy(), health=health,
        ) as executor:
            try:
                factors = run_steps(executor, problem, steps=steps).factors.copy()
            except InjectedWorkerKill as exc:
                factors, error = None, str(exc)
        return factors, error, health.events

    def test_fault_log_equals_the_one_lane_log_in_order(self, problem, monkeypatch):
        faults = FaultPlan(
            seed=8, kill_rate=0.4, delay_rate=0.3, nan_rate=0.3,
            delay_seconds=0.0,
        )
        one_factors, _, one_log = self._run(problem, monkeypatch, 1, faults)
        kinds = {event.kind for event in one_log}
        assert {
            "fault.worker-kill", "supervise.retry", "fault.delay", "fault.nan-flip",
        } <= kinds
        for cores in (2, 3, 5):
            factors, _, log = self._run(problem, monkeypatch, cores, faults)
            assert log == one_log
            assert np.array_equal(factors, one_factors)

    def test_more_lanes_than_cores_under_fast_switching(self, problem, monkeypatch):
        """Eight lanes on any host, switching threads every few
        microseconds: a lost or reordered event, or a row written by the
        wrong lane, breaks equality with the one-lane run."""
        faults = FaultPlan(
            seed=8, kill_rate=0.4, delay_rate=0.3, nan_rate=0.3,
            delay_seconds=0.0,
        )
        one_factors, _, one_log = self._run(problem, monkeypatch, 1, faults, shards=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            factors, _, log = self._run(problem, monkeypatch, 8, faults, shards=8)
        finally:
            sys.setswitchinterval(interval)
        assert log == one_log
        assert np.array_equal(factors, one_factors)

    def test_exhausted_retry_fails_like_the_one_lane_loop(
        self, problem, monkeypatch
    ):
        """Shards after the failed one ran on other lanes, but their
        events are dropped, as the one-lane loop never ran them."""
        # step 0 kills shards 2 and 4; every other shard logs a delay
        faults = FaultPlan(seed=0, kill_rate=0.3, delay_rate=1.0, delay_seconds=0.0)
        policy = SupervisionPolicy(max_retries=0, backoff_seconds=0.0)
        _, one_error, one_log = self._run(
            problem, monkeypatch, 1, faults, policy=policy, steps=1
        )
        assert one_error is not None
        assert one_log[-1].kind == "fault.worker-kill"
        assert one_log[-1].shard == 2
        _, error, log = self._run(problem, monkeypatch, 5, faults, policy=policy, steps=1)
        assert (error, log) == (one_error, one_log)


class TestPoolSupervised:
    def test_real_sigkills_respawn_and_account(self, problem):
        faults = FaultPlan(seed=11, kill_rate=0.4, delay_rate=0.3, delay_seconds=0.0)
        health = RunHealth()
        with ShardExecutor(
            RuntimePlan(shards=4, workers=2),
            supervision=FAST, faults=faults, health=health,
        ) as executor:
            result = run_steps(executor, problem, steps=3)
            expected = expected_fault_events(faults, executor.spans_log)
        assert np.isfinite(result.factors).all()
        missing, extra = account(expected, health.fault_events())
        assert (missing, extra) == ([], [])
        assert health.counts().get("supervise.respawn", 0) == 0

    def test_pool_result_bit_equal_to_unsupervised(self, problem):
        plan = RuntimePlan(shards=4, workers=2)
        with ShardExecutor(plan) as plain:
            ref = run_steps(plain, problem, steps=1)
        with ShardExecutor(plan, supervision=FAST) as sup:
            out = run_steps(sup, problem, steps=1)
        np.testing.assert_array_equal(out.factors, ref.factors)

    def test_deadline_kills_and_retries(self, problem):
        # Every shard sleeps 0.2s on attempt 0, far past the 0.05s
        # deadline; retries are clean and must finish the step.  The
        # killed workers never report their delay events, so only the
        # kind counts are asserted — not the full account() ledger.
        faults = FaultPlan(seed=3, delay_rate=1.0, delay_seconds=0.2)
        policy = SupervisionPolicy(
            backoff_seconds=0.001, shard_deadline=0.05, pool_fault_limit=100,
        )
        health = RunHealth()
        with ShardExecutor(
            RuntimePlan(shards=2, workers=2),
            supervision=policy, faults=faults, health=health,
        ) as executor:
            result = run_steps(executor, problem, steps=1)
        assert np.isfinite(result.factors).all()
        counts = health.counts()
        assert counts.get("supervise.deadline", 0) == 2
        assert counts.get("supervise.retry", 0) == 2

    def test_degrades_to_serial_after_fault_limit(self, problem):
        faults = FaultPlan(seed=0, kill_rate=1.0)
        policy = SupervisionPolicy(
            max_retries=2, backoff_seconds=0.001, pool_fault_limit=1,
        )
        health = RunHealth()
        with ShardExecutor(
            RuntimePlan(shards=2, workers=2),
            supervision=policy, faults=faults, health=health,
        ) as executor:
            result = run_steps(executor, problem, steps=2)
            assert executor._degraded
        assert np.isfinite(result.factors).all()
        assert health.counts().get("supervise.degrade-serial", 0) == 1


class TestLifecycle:
    def test_close_is_idempotent(self, problem):
        executor = ShardExecutor(RuntimePlan(shards=2), supervision=FAST)
        run_steps(executor, problem, steps=1)
        executor.close()
        executor.close()
        assert executor._shm == {}

    def test_context_manager_releases_shm(self, problem):
        if not HAS_FORK:
            pytest.skip("fork start method unavailable")
        with ShardExecutor(RuntimePlan(shards=2, workers=2)) as executor:
            run_steps(executor, problem, steps=1)
            assert executor._shm
        assert executor._shm == {}

    def test_close_runs_even_when_body_raises(self, problem):
        with pytest.raises(RuntimeError, match="boom"):
            with ShardExecutor(RuntimePlan(shards=2)) as executor:
                run_steps(executor, problem, steps=1)
                raise RuntimeError("boom")
        assert executor._outputs == {}


class TestBackoffSchedule:
    """The shared schedule, as the executor and the fleet drive it.

    The executor stretches each sleep by ``policy.backoff_jitter`` times
    its fault plan's seeded draw; the fleet caps it instead.
    """

    @staticmethod
    def executor_sleep(policy, plan, step, shard, attempt):
        jitter = 0.0 if plan is None else (
            policy.backoff_jitter * plan.backoff_jitter(step, shard, attempt)
        )
        return backoff(
            policy.backoff_seconds, policy.backoff_factor, attempt, jitter=jitter
        )

    def test_no_plan_means_no_jitter(self):
        policy = SupervisionPolicy(backoff_seconds=0.01, backoff_factor=2.0)
        for attempt in range(3):
            want = 0.01 * 2.0**attempt
            got = self.executor_sleep(policy, None, 0, 0, attempt)
            assert got == pytest.approx(want)

    def test_jitter_is_bounded_and_replayable(self):
        policy = SupervisionPolicy(
            backoff_seconds=0.01, backoff_factor=2.0, backoff_jitter=0.25
        )
        plan = FaultPlan(seed=11)
        for attempt in range(3):
            base = 0.01 * 2.0**attempt
            got = self.executor_sleep(policy, plan, 2, 1, attempt)
            assert base <= got < base * 1.25
            again = self.executor_sleep(policy, plan, 2, 1, attempt)
            assert got == again  # noqa: repro-float-eq - replayable schedule

    def test_jitter_derives_from_plan_seed(self):
        policy = SupervisionPolicy(backoff_seconds=0.01, backoff_jitter=0.25)
        a = self.executor_sleep(policy, FaultPlan(seed=1), 0, 0, 0)
        b = self.executor_sleep(policy, FaultPlan(seed=2), 0, 0, 0)
        assert a != b  # noqa: repro-float-eq - distinct streams

    def test_zero_jitter_policy_ignores_plan(self):
        policy = SupervisionPolicy(backoff_seconds=0.01, backoff_jitter=0.0)
        got = self.executor_sleep(policy, FaultPlan(seed=1), 0, 0, 1)
        assert got == pytest.approx(0.02)

    def test_fleet_schedule_is_capped(self):
        fleet = FleetConfig(
            respawn_backoff_seconds=0.01, respawn_backoff_factor=2.0,
            respawn_backoff_max=0.05,
        )
        got = [
            backoff(
                fleet.respawn_backoff_seconds, fleet.respawn_backoff_factor,
                strikes, cap=fleet.respawn_backoff_max,
            )
            for strikes in range(5)
        ]
        assert got == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])
