"""ServingEngine: admission, ladder order, breaker wiring, chaos replay."""

import numpy as np
import pytest

from repro.core.als import ALSModel
from repro.core.config import ALSConfig
from repro.persistence import save_model
from repro.resilience.faults import FaultPlan, account, expected_serving_faults
from repro.serving.breaker import BreakerConfig
from repro.serving.engine import ServingConfig, ServingEngine


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


def make_engine(model_path, *, faults=None, **config_kw):
    defaults = dict(queue_capacity=4, max_batch=2, budget_ticks=6)
    defaults.update(config_kw)
    return ServingEngine(
        model_path, config=ServingConfig(**defaults), faults=faults
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            ServingConfig(queue_capacity=0)
        with pytest.raises(ValueError, match="max_batch"):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError, match="budget_ticks"):
            ServingConfig(budget_ticks=-1)
        with pytest.raises(ValueError, match="cache_capacity"):
            ServingConfig(cache_capacity=0)


class TestHappyPath:
    def test_answers_match_exact_topk(self, model_path):
        engine = make_engine(model_path)
        rid = engine.submit(user=3, k=4)
        engine.run_until_drained()
        got = engine.results[rid]
        scores = engine.probe_scores(3)
        want = list(np.argsort(scores)[::-1][:4])
        assert [i for i, _ in got] == want
        assert engine.health.audit() == []
        assert engine.health.availability() == pytest.approx(1.0)

    def test_queue_full_sheds_at_the_door(self, model_path):
        engine = make_engine(model_path, queue_capacity=2)
        for _ in range(3):
            engine.submit(user=0, k=1)
        counts = engine.health.counts()
        assert counts["request.admitted"] == 2
        assert counts["request.shed"] == 1
        engine.run_until_drained()
        assert engine.health.audit() == []

    def test_zero_budget_expires_if_not_served_same_tick(self, model_path):
        engine = make_engine(model_path, max_batch=1)
        first = engine.submit(user=0, k=1, budget_ticks=0)
        second = engine.submit(user=1, k=1, budget_ticks=0)
        engine.run_until_drained()
        assert first in engine.results
        # The second missed its same-tick deadline behind the first.
        shed = [
            e for e in engine.health.events
            if e.kind == "request.shed" and e.request_id == second
        ]
        assert len(shed) == 1 and shed[0].detail == "deadline"
        assert engine.health.audit() == []

    def test_same_tick_burst_sheds_overflow_and_partitions_exactly(
        self, model_path
    ):
        # A burst bigger than the queue within one tick: the overflow is
        # shed at the door, and the terminals still form an exact
        # partition — every submitted request ends in exactly one of
        # answered / shed, nothing lost or double-counted.
        engine = make_engine(model_path, queue_capacity=4, max_batch=2)
        rids = [engine.submit(user=i % NUM_USERS, k=1) for i in range(10)]
        counts = engine.health.counts()
        assert counts["request.admitted"] == 4
        assert counts["request.shed"] == 6
        door_sheds = [
            e for e in engine.health.events if e.kind == "request.shed"
        ]
        assert all(e.detail == "queue-full" for e in door_sheds)
        engine.run_until_drained()
        assert engine.health.audit() == []
        from repro.serving.health import TERMINAL_KINDS

        terminals = [
            e for e in engine.health.events if e.kind in TERMINAL_KINDS
        ]
        assert sorted(e.request_id for e in terminals) == sorted(rids)
        assert engine.health.counts()["request.answered"] == 4

    def test_invalid_requests_fault_without_queueing(self, model_path):
        engine = make_engine(model_path)
        bad_user = engine.submit(user=99, k=1)
        bad_budget = engine.submit(user=0, k=1, budget_ticks=-1)
        bad_k = engine.submit(user=0, k=0)
        for rid in (bad_user, bad_budget, bad_k):
            assert engine.errors[rid].kind == "invalid-request"
        assert len(engine.queue) == 0
        assert engine.health.audit() == []


class TestDegradationLadder:
    def test_stall_degrades_to_popularity_when_cache_cold(self, model_path):
        plan = FaultPlan(seed=0, stall_rate=1.0)
        engine = make_engine(model_path, faults=plan)
        rid = engine.submit(user=0, k=3)
        engine.tick()
        degraded = [
            e for e in engine.health.events if e.kind == "request.degraded"
        ]
        assert [e.request_id for e in degraded] == [rid]
        assert degraded[0].rung == "popularity"
        assert rid in engine.results

    def test_stale_cache_preferred_over_popularity(self, model_path):
        engine = make_engine(model_path)
        engine.submit(user=0, k=3)
        engine.run_until_drained()  # warms the cache for (user=0, k=3)
        engine.faults = FaultPlan(seed=0, stall_rate=1.0)
        rid = engine.submit(user=0, k=3)
        engine.run_until_drained()
        event = [
            e for e in engine.health.events
            if e.kind == "request.degraded" and e.request_id == rid
        ][0]
        assert event.rung == "stale-cache"
        assert "model v" in event.detail

    def test_breaker_trips_under_sustained_stall(self, model_path):
        plan = FaultPlan(seed=0, stall_rate=1.0)
        engine = make_engine(
            model_path,
            faults=plan,
            breaker=BreakerConfig(failure_threshold=2, cooldown_ticks=4),
        )
        for _ in range(6):
            engine.submit(user=0, k=1)
            engine.tick()
        assert engine.breaker.trips >= 1
        assert "breaker.open" in engine.health.counts()
        assert engine.health.audit() == []

    def test_nan_lane_degrades_only_the_victim(self, model_path):
        plan = FaultPlan(seed=3, score_nan_rate=1.0)
        engine = make_engine(model_path, faults=plan, max_batch=2)
        a = engine.submit(user=0, k=2)
        b = engine.submit(user=1, k=2)
        engine.tick()
        counts = engine.health.counts()
        assert counts["request.answered"] == 1
        assert counts["request.degraded"] == 1
        assert a in engine.results and b in engine.results
        assert engine.health.audit() == []


class TestHotReload:
    def test_reload_serves_new_factors(self, model_path, tmp_path):
        engine = make_engine(model_path)
        rng = np.random.default_rng(1)
        other = ALSModel(ALSConfig(f=F, seed=1))
        other.x_ = rng.standard_normal((NUM_USERS, F)).astype(np.float32)
        other.theta_ = rng.standard_normal((NUM_ITEMS, F)).astype(np.float32)
        new_path = tmp_path / "model-b.npz"
        save_model(new_path, other)
        outcome = engine.reload(new_path)
        assert outcome.status == "swapped"
        np.testing.assert_array_equal(
            engine.probe_scores(0), other.theta_ @ other.x_[0]
        )

    def test_noop_reload_is_bit_equivalent(self, model_path):
        engine = make_engine(model_path)
        before = engine.probe_scores(0)
        outcome = engine.reload(engine.store.path)
        assert outcome.status == "noop"
        assert engine.probe_scores(0).tobytes() == before.tobytes()

    def test_corrupt_reload_rolls_back_without_dropping_requests(
        self, model_path, tmp_path
    ):
        blob = bytearray(model_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.npz"
        bad.write_bytes(bytes(blob))
        engine = make_engine(model_path)
        rid = engine.submit(user=0, k=2)
        outcome = engine.reload(bad)
        assert outcome.status == "rolled-back"
        engine.run_until_drained()
        assert rid in engine.results
        assert engine.health.audit() == []
        assert engine.store.version == 1


class TestChaosDeterminism:
    def drive(self, model_path, seed):
        plan = FaultPlan(
            seed=seed, stall_rate=0.3, reload_rate=0.1,
            corrupt_rate=0.1, score_nan_rate=0.2,
        )
        engine = make_engine(model_path, faults=plan)
        rng = np.random.default_rng(42)
        for _ in range(20):
            engine.submit(user=int(rng.integers(0, NUM_USERS)), k=3)
            engine.tick()
        engine.run_until_drained()
        return engine

    def test_same_seed_replays_the_same_log(self, model_path):
        a = self.drive(model_path, seed=7)
        b = self.drive(model_path, seed=7)
        assert a.health.events == b.health.events

    def test_fault_log_matches_plan_enumeration(self, model_path):
        engine = self.drive(model_path, seed=7)
        expected = expected_serving_faults(engine.faults, engine.tick_now)
        missing, extra = account(expected, engine.health.fault_events())
        assert missing == [] and extra == []
        assert engine.health.audit() == []


class TestRetrievalIndex:
    def make_indexed(self, model_path, *, nprobe=None, faults=None):
        from repro.serving.index import IndexConfig

        return ServingEngine(
            model_path,
            config=ServingConfig(queue_capacity=8, max_batch=4, budget_ticks=6),
            faults=faults,
            index_config=IndexConfig(seed=0),
            nprobe=nprobe,
        )

    def test_init_validates_nprobe(self, model_path):
        with pytest.raises(ValueError, match="nprobe"):
            self.make_indexed(model_path, nprobe=0)

    def test_index_built_at_install_and_answers(self, model_path):
        engine = self.make_indexed(model_path)
        stats = engine.stats()
        assert stats["index_enabled"] and stats["index_current"]
        assert stats["index_builds"] == 1
        rid = engine.submit(user=1, k=3)
        engine.run_until_drained()
        assert len(engine.results[rid]) == 3
        # Served through the probed path as a full answer, not a rung.
        kinds = [e.kind for e in engine.health.events]
        assert "request.answered" in kinds
        assert engine.batcher.index_routed == 1
        assert engine.health.availability() == pytest.approx(1.0)

    def test_nprobe_ncells_matches_exact_topk(self, model_path):
        engine = self.make_indexed(model_path)
        ncells = engine.store.index.ncells
        rid = engine.submit(user=3, k=4, nprobe=ncells)
        engine.run_until_drained()
        scores = engine.probe_scores(3)
        want = list(np.argsort(scores)[::-1][:4])
        assert [i for i, _ in engine.results[rid]] == want

    def test_missing_index_serves_brute_force_rung(self, model_path):
        engine = self.make_indexed(model_path)
        engine.store.invalidate_index()
        rid = engine.submit(user=2, k=4)
        engine.run_until_drained()
        # Answered exactly (the brute GEMM) but attributed to the rung.
        scores = engine.probe_scores(2)
        want = list(np.argsort(scores)[::-1][:4])
        assert [i for i, _ in engine.results[rid]] == want
        degraded = [
            e for e in engine.health.events if e.kind == "request.degraded"
        ]
        assert [e.rung for e in degraded] == ["brute-force"]
        # The rung is a terminal outcome: the audit still partitions.
        assert engine.health.audit() == []
        assert engine.health.availability() == pytest.approx(1.0)

    def test_no_index_config_serves_plain_answers(self, model_path):
        engine = make_engine(model_path)
        stats = engine.stats()
        assert not stats["index_enabled"]
        assert stats["index"] is None
        rid = engine.submit(user=0, k=2)
        engine.run_until_drained()
        assert len(engine.results[rid]) == 2
        assert engine.batcher.index_routed == 0
