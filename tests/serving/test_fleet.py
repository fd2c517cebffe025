"""FleetEngine: supervised worker pool behind the ServingEngine contract.

The wall-clock knobs (heartbeat timeout, respawn backoff) are tuned way
down here — supervision latency is the thing under test, not realistic
production pacing.  Request accounting itself lives on the virtual tick
clock, so every assertion about health events is deterministic.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.als import ALSModel
from repro.core.config import ALSConfig
from repro.persistence import save_model
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.fleet import FleetConfig, FleetEngine
from repro.serving.health import TERMINAL_KINDS

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet workers need the fork start method",
)

NUM_USERS, NUM_ITEMS, F = 8, 12, 4


@pytest.fixture()
def model_path(tmp_path):
    rng = np.random.default_rng(0)
    model = ALSModel(ALSConfig(f=F, seed=0))
    model.x_ = rng.standard_normal((NUM_USERS, F)).astype(np.float32)
    model.theta_ = rng.standard_normal((NUM_ITEMS, F)).astype(np.float32)
    path = tmp_path / "model.npz"
    save_model(path, model)
    return path


FAST = dict(
    heartbeat_timeout=0.05,
    respawn_backoff_seconds=0.001,
    respawn_backoff_max=0.01,
)


def make_fleet(model_path, *, workers=2, faults=None, fleet_kw=None,
               **config_kw):
    defaults = dict(queue_capacity=8, max_batch=4, budget_ticks=6)
    defaults.update(config_kw)
    fleet = FleetConfig(workers=workers, **{**FAST, **(fleet_kw or {})})
    return FleetEngine(
        model_path,
        fleet=fleet,
        config=ServingConfig(**defaults),
        faults=faults,
    )


def terminals_of(engine):
    return {
        e.request_id: e.kind
        for e in engine.health.events
        if e.kind in TERMINAL_KINDS
    }


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers=0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            FleetConfig(heartbeat_timeout=0.0)
        with pytest.raises(ValueError, match="batch_deadline"):
            FleetConfig(batch_deadline=0.0)
        with pytest.raises(ValueError, match="max_respawns"):
            FleetConfig(max_respawns=-1)
        with pytest.raises(ValueError, match="respawn_backoff_factor"):
            FleetConfig(respawn_backoff_factor=0.5)
        with pytest.raises(ValueError, match="respawn_backoff_max"):
            FleetConfig(respawn_backoff_seconds=1.0, respawn_backoff_max=0.5)
        with pytest.raises(ValueError, match="fleet_fault_limit"):
            FleetConfig(fleet_fault_limit=0)


class TestEquivalence:
    def test_one_worker_bit_identical_to_single_engine(self, model_path):
        single = ServingEngine(
            model_path,
            config=ServingConfig(queue_capacity=8, max_batch=4,
                                 budget_ticks=6),
        )
        fleet = make_fleet(model_path, workers=1)
        try:
            rng = np.random.default_rng(7)
            for _ in range(24):
                user = int(rng.integers(0, NUM_USERS))
                k = int(rng.integers(1, 6))
                single.submit(user=user, k=k)
                fleet.submit(user=user, k=k)
                single.tick()
                fleet.tick()
            single.run_until_drained()
            fleet.run_until_drained()
            assert fleet.results == single.results  # bit-identical tuples
            assert terminals_of(fleet) == terminals_of(single)
            assert single.health.audit() == []
            assert fleet.health.audit() == []
        finally:
            fleet.close()


class TestSupervision:
    def test_mid_batch_kill_reroutes_in_the_same_tick(self, model_path):
        fleet = make_fleet(model_path, workers=2)
        try:
            # Router: users 0-3 → slot 0, users 4-7 → slot 1.
            first = fleet.submit(user=0, k=2)
            second = fleet.submit(user=5, k=2)
            fleet._kill_victim = 0
            fleet.tick()
            assert fleet.worker_deaths == 1
            assert fleet.rerouted_requests == 1
            assert first in fleet.results and second in fleet.results
            rerouted = [
                e for e in fleet.health.events
                if e.kind == "request.rerouted"
            ]
            assert [e.request_id for e in rerouted] == [first]
            assert rerouted[0].worker == 0
            # The victim's answer came from the in-process path (-1);
            # the other slot's from its worker.
            by_id = {
                e.request_id: e.worker
                for e in fleet.health.events
                if e.kind == "request.answered"
            }
            assert by_id[first] == -1
            assert by_id[second] == 1
            assert fleet.health.audit() == []
            # The slot was respawned within its strike budget.
            assert fleet.stats()["fleet_live_workers"] == 2
        finally:
            fleet.close()

    def test_heartbeat_detects_and_replaces_a_dead_idle_worker(
        self, model_path
    ):
        fleet = make_fleet(model_path, workers=2)
        try:
            fleet._workers[1].proc.kill()
            fleet._workers[1].proc.join()
            fleet.tick()  # no traffic: the heartbeat round runs
            assert fleet.heartbeat_misses == 1
            misses = [
                e for e in fleet.health.events
                if e.kind == "worker.heartbeat-miss"
            ]
            assert [e.worker for e in misses] == [1]
            assert fleet.stats()["fleet_live_workers"] == 2
        finally:
            fleet.close()

    def test_fault_limit_latches_to_the_inline_path(self, model_path):
        fleet = make_fleet(
            model_path, workers=2, fleet_kw=dict(fleet_fault_limit=1)
        )
        try:
            rid = fleet.submit(user=0, k=2)
            fleet._kill_victim = 0
            fleet.tick()
            assert fleet.stats()["fleet_inline_latched"]
            assert fleet.stats()["fleet_live_workers"] == 0
            kinds = [e.kind for e in fleet.health.events]
            assert "fleet.degrade-inline" in kinds
            # Latched, the engine still serves — in-process.
            later = fleet.submit(user=3, k=2)
            fleet.run_until_drained()
            assert rid in fleet.results and later in fleet.results
            assert fleet.health.audit() == []
        finally:
            fleet.close()


class TestReload:
    def test_swap_restages_and_respawns_every_worker(
        self, model_path, tmp_path
    ):
        rng = np.random.default_rng(1)
        other = ALSModel(ALSConfig(f=F, seed=1))
        other.x_ = rng.standard_normal((NUM_USERS, F)).astype(np.float32)
        other.theta_ = rng.standard_normal((NUM_ITEMS, F)).astype(np.float32)
        other_path = tmp_path / "model-b.npz"
        save_model(other_path, other)

        fleet = make_fleet(model_path, workers=2)
        try:
            outcome = fleet.reload(other_path)
            assert outcome.status == "swapped"
            restages = [
                e for e in fleet.health.events
                if e.kind == "worker.respawned" and "restage" in (e.detail or "")
            ]
            assert sorted(e.worker for e in restages) == [0, 1]
            # Workers now serve the new factors: their answer matches an
            # in-process engine loaded from the new artifact.
            oracle = ServingEngine(
                other_path,
                config=ServingConfig(queue_capacity=8, max_batch=4,
                                     budget_ticks=6),
            )
            want = oracle.submit(user=6, k=3)
            oracle.run_until_drained()
            got = fleet.submit(user=6, k=3)
            fleet.run_until_drained()
            assert fleet.results[got] == oracle.results[want]
            assert fleet.health.audit() == []
        finally:
            fleet.close()


class TestTeardown:
    def test_close_is_idempotent_and_stops_the_pool(self, model_path):
        fleet = make_fleet(model_path, workers=2)
        procs = [h.proc for h in fleet._workers]
        fleet.close()
        assert all(not p.is_alive() for p in procs)
        assert fleet._workers == [None, None]
        fleet.close()  # second close is a no-op
        assert fleet.stats()["fleet_live_workers"] == 0

    def test_stats_carries_the_fleet_counters(self, model_path):
        fleet = make_fleet(model_path, workers=2)
        try:
            rid = fleet.submit(user=2, k=2)
            fleet.run_until_drained()
            assert rid in fleet.results
            stats = fleet.stats()
            for key in (
                "fleet_workers",
                "fleet_live_workers",
                "fleet_respawns",
                "fleet_faults",
                "fleet_inline_latched",
                "fleet_worker_batches",
                "fleet_inline_batches",
                "fleet_rerouted_requests",
                "fleet_heartbeat_misses",
                "fleet_worker_deaths",
            ):
                assert key in stats
            assert stats["fleet_workers"] == 2
            assert stats["fleet_worker_batches"] >= 1
        finally:
            fleet.close()
