"""FaultPlan: deterministic, auditable, validated — one plan, three planes."""

import pickle

import numpy as np
import pytest

from repro.resilience.faults import (
    SERVING_FAULT_KINDS,
    FaultPlan,
    InjectedWorkerKill,
    NumericalFault,
    expected_fault_events,
    expected_serving_faults,
    inject_shard_start,
    solver_fault_hook,
)

ALL_ON = FaultPlan(
    seed=3, kill_rate=0.3, delay_rate=0.3, nan_rate=0.3, overflow_rate=0.3,
    delay_seconds=0.0,
)


class TestFaultPlanDecisions:
    def test_fires_is_deterministic(self):
        for kind in ALL_ON.rate_of:
            for step in range(4):
                for shard in range(4):
                    first = ALL_ON.fires(kind, step, shard)
                    assert all(
                        ALL_ON.fires(kind, step, shard) == first for _ in range(3)
                    )

    def test_zero_rate_never_fires(self):
        quiet = FaultPlan(seed=3)
        assert not any(
            quiet.fires(kind, step, shard)
            for kind in quiet.rate_of
            for step in range(20)
            for shard in range(5)
        )

    def test_rate_one_always_fires(self):
        loud = FaultPlan(seed=0, nan_rate=1.0)
        assert all(loud.fires("fault.nan-flip", s, sh) for s in range(5) for sh in range(5))

    def test_retries_are_clean(self):
        loud = FaultPlan(seed=0, kill_rate=1.0, nan_rate=1.0)
        assert loud.fires("fault.worker-kill", 0, 0, attempt=0)
        assert not loud.fires("fault.worker-kill", 0, 0, attempt=1)
        assert not loud.fires("fault.nan-flip", 0, 0, attempt=2)
        # Every kind, on either site shape, fires only on attempt 0.
        every = FaultPlan(**{name: 1.0 for name in _rate_fields()})
        for kind in every.rate_of:
            assert every.fires(kind, 0, 0) and every.fires(kind, 7)
            assert not every.fires(kind, 0, 0, attempt=1)
            assert not every.fires(kind, 7, attempt=1)

    def test_kinds_are_independent_streams(self):
        # With the same (step, shard), different kinds must not be
        # perfectly correlated — they draw from distinct SeedSequences.
        plan = FaultPlan(seed=9, nan_rate=0.5, overflow_rate=0.5)
        sites = [(s, sh) for s in range(30) for sh in range(4)]
        nan = [plan.fires("fault.nan-flip", *site) for site in sites]
        ovf = [plan.fires("fault.fp16-overflow", *site) for site in sites]
        assert nan != ovf

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=1, nan_rate=0.5)
        b = FaultPlan(seed=2, nan_rate=0.5)
        sites = [(s, sh) for s in range(30) for sh in range(4)]
        assert [a.fires("fault.nan-flip", *x) for x in sites] != [
            b.fires("fault.nan-flip", *x) for x in sites
        ]

    def test_training_victim_lane_in_range_and_deterministic(self):
        for num in (1, 2, 7, 100):
            lanes = {
                ALL_ON.victim_lane("fault.nan-flip", 0, 0, num_lanes=num)
                for _ in range(5)
            }
            assert len(lanes) == 1
            assert 0 <= lanes.pop() < num

    def test_victim_lane_rejects_empty(self):
        with pytest.raises(ValueError, match="num_lanes"):
            ALL_ON.victim_lane("fault.nan-flip", 0, 0, num_lanes=0)

    @pytest.mark.parametrize("field", ["kill_rate", "delay_rate", "nan_rate", "overflow_rate"])
    def test_rates_validated(self, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: 1.5})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=-1)

    def test_as_dict_round_trips(self):
        assert FaultPlan(**ALL_ON.as_dict()) == ALL_ON


class TestExpectedEvents:
    def test_empty_shards_inject_nothing(self):
        loud = FaultPlan(seed=0, kill_rate=1.0, nan_rate=1.0)
        spans = [[(0, 0), (0, 4)], [(2, 2)]]
        events = expected_fault_events(loud, spans)
        assert all(site == ("fault.worker-kill", 0, 1) for site in events)

    def test_kill_preempts_other_faults(self):
        loud = FaultPlan(seed=0, kill_rate=1.0, delay_rate=1.0, nan_rate=1.0)
        events = expected_fault_events(loud, [[(0, 4)]])
        assert events == [("fault.worker-kill", 0, 0)]

    def test_enumeration_matches_fires(self):
        spans = [[(0, 5), (5, 9)] for _ in range(6)]
        events = expected_fault_events(ALL_ON, spans)
        for kind, step, shard in events:
            assert ALL_ON.fires(kind, step, shard)


class TestInjection:
    def test_serial_kill_raises(self):
        loud = FaultPlan(seed=0, kill_rate=1.0)
        with pytest.raises(InjectedWorkerKill):
            inject_shard_start(loud, 0, 0, 0, forked=False, events=[])

    def test_delay_records_event(self):
        plan = FaultPlan(seed=0, delay_rate=1.0, delay_seconds=0.0)
        events = []
        inject_shard_start(plan, 0, 0, 0, forked=False, events=events)
        assert [e["kind"] for e in events] == ["fault.delay"]

    def test_retry_injects_nothing(self):
        loud = FaultPlan(seed=0, kill_rate=1.0, delay_rate=1.0)
        events = []
        inject_shard_start(loud, 0, 0, 1, forked=False, events=events)
        assert events == []

    def test_solver_hook_corrupts_victim_lane_only(self):
        plan = FaultPlan(seed=0, nan_rate=1.0)
        events = []
        hook = solver_fault_hook(plan, 0, 0, 0, 10, events, num_lanes=4)
        store = np.ones((4, 3, 3), dtype=np.float32)
        hook.block(0, 4)(store)
        bad = ~np.isfinite(store).all(axis=(1, 2))
        assert bad.sum() == 1
        (event,) = events
        assert event["kind"] == "fault.nan-flip"
        assert event["lanes"] == [10 + int(np.flatnonzero(bad)[0])]

    def test_overflow_hook_flips_signs(self):
        plan = FaultPlan(seed=0, overflow_rate=1.0)
        events = []
        hook = solver_fault_hook(plan, 0, 0, 0, 0, events, num_lanes=2)
        store = np.ones((2, 4, 4), dtype=np.float32)
        hook.block(0, 2)(store)
        lane = events[0]["lanes"][0]
        assert np.all(np.isinf(store[lane]))
        assert (store[lane] < 0).any() and (store[lane] > 0).any()

    def test_quiet_plan_returns_no_hook(self):
        assert solver_fault_hook(FaultPlan(seed=0), 0, 0, 0, 0, [], num_lanes=4) is None

    def test_hook_corrupts_only_the_block_holding_the_victim(self):
        """The victim is drawn over the shard's rows; a solver batch of
        part of those rows gets the corruption only if it holds it."""
        plan = FaultPlan(seed=0, nan_rate=1.0)
        events = []
        hook = solver_fault_hook(plan, 0, 0, 0, 100, events, num_lanes=6)
        (event,) = events
        victim = event["lanes"][0] - 100
        corrupted = []
        for start in range(0, 6, 2):
            block = hook.block(start, start + 2)
            if block is None:
                continue
            store = np.ones((2, 3, 3), dtype=np.float32)
            block(store)
            bad = np.flatnonzero(~np.isfinite(store).all(axis=(1, 2)))
            corrupted.extend(start + int(i) for i in bad)
        assert corrupted == [victim]


class TestNumericalFault:
    def test_carries_provenance(self):
        err = NumericalFault("bad", lanes=(3, 7), stage="solve")
        assert err.lanes == (3, 7)
        assert err.stage == "solve"

    def test_pickle_round_trip(self):
        err = NumericalFault("bad lanes", lanes=(1, 2), stage="hermitian")
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, NumericalFault)
        assert back.args == err.args
        assert back.lanes == err.lanes
        assert back.stage == err.stage


class TestBackoffJitter:
    def test_deterministic_per_site(self):
        plan = FaultPlan(seed=5)
        draws = [plan.backoff_jitter(2, 1, a) for a in range(4)]
        again = [plan.backoff_jitter(2, 1, a) for a in range(4)]
        assert draws == again  # noqa: repro-float-eq - replay must be exact

    def test_distinct_sites_get_distinct_jitter(self):
        plan = FaultPlan(seed=5)
        draws = {
            plan.backoff_jitter(step, shard, attempt)
            for step in range(3)
            for shard in range(3)
            for attempt in range(3)
        }
        assert len(draws) == 27

    def test_range_and_seed_sensitivity(self):
        a = FaultPlan(seed=1).backoff_jitter(0, 0, 0)
        b = FaultPlan(seed=2).backoff_jitter(0, 0, 0)
        assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0
        assert a != b  # noqa: repro-float-eq - different streams

    def test_independent_of_global_rng(self):
        plan = FaultPlan(seed=9)
        before = plan.backoff_jitter(1, 1, 1)
        np.random.seed(0)
        np.random.random(100)
        assert plan.backoff_jitter(1, 1, 1) == before  # noqa: repro-float-eq

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            FaultPlan(seed=0).backoff_jitter(0, 0, -1)


class TestServingFaultPlan:
    def make_plan(self, **kw):
        defaults = dict(
            seed=0, stall_rate=0.5, reload_rate=0.2,
            corrupt_rate=0.2, score_nan_rate=0.3,
        )
        defaults.update(kw)
        return FaultPlan(**defaults)

    def test_fires_is_deterministic(self):
        plan = self.make_plan()
        for kind in plan.rate_of:
            for tick in range(8):
                first = plan.fires(kind, tick)
                assert all(plan.fires(kind, tick) == first for _ in range(3))

    def test_zero_rate_never_fires(self):
        plan = self.make_plan(stall_rate=0.0)
        assert not any(plan.fires("fault.backend-stall", t) for t in range(64))

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="stall_rate"):
            self.make_plan(stall_rate=1.5)
        with pytest.raises(ValueError, match="seed"):
            self.make_plan(seed=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            self.make_plan().fires("fault.gremlin", 0)

    def test_unknown_kind_error_lists_every_valid_kind(self):
        # The message is the API's discovery surface: it must name all
        # kinds, fleet-scoped and training ones included, from both entry
        # points.
        plan = self.make_plan()
        for trigger in (
            lambda: plan.fires("fault.gremlin", 0),
            lambda: plan.victim_lane("fault.gremlin", 0, num_lanes=3),
        ):
            with pytest.raises(ValueError) as excinfo:
                trigger()
            message = str(excinfo.value)
            for kind in plan.rate_of:
                assert kind in message
        assert "fault.fleet-worker-kill" in message

    def test_fleet_rates_default_to_zero_and_enumerate(self):
        # Back-compat: a plan built without the fleet rates never fires
        # a fleet kind, yet still enumerates every serving kind in rate_of.
        plan = self.make_plan()
        assert set(SERVING_FAULT_KINDS) <= set(plan.rate_of)
        for kind in (
            "fault.fleet-worker-kill",
            "fault.fleet-worker-reload",
            "fault.fleet-heartbeat-stall",
        ):
            assert plan.rate_of[kind] == 0.0
            assert not any(plan.fires(kind, t) for t in range(64))

    def test_victim_lane_in_range_and_stable(self):
        plan = self.make_plan(score_nan_rate=1.0)
        lanes = [plan.victim_lane("fault.score-nan", t, num_lanes=5) for t in range(16)]
        assert all(0 <= lane < 5 for lane in lanes)
        assert lanes == [
            plan.victim_lane("fault.score-nan", t, num_lanes=5) for t in range(16)
        ]

    def test_expected_faults_enumeration_matches_fires(self):
        plan = self.make_plan()
        expected = expected_serving_faults(plan, 32)
        rebuilt = [
            (kind, tick)
            for tick in range(32)
            for kind in plan.rate_of
            if plan.fires(kind, tick)
        ]
        assert sorted(expected) == sorted(rebuilt)
        assert len(expected) > 0


class TestFaultStreamRegistry:
    """The docs/resilience.md registry table is authoritative.

    Stream numbers are part of the on-disk chaos contract (they seed the
    per-kind SeedSequence streams); this test pins the code's maps to the
    documented table so neither can drift silently.
    """

    def parse_docs_table(self):
        import os
        import re

        here = os.path.dirname(os.path.abspath(__file__))
        path = os.path.join(here, "..", "..", "docs", "resilience.md")
        rows = {}
        row_re = re.compile(r"^\|\s*(\d+)\s*\|\s*`([^`]+)`\s*\|")
        for line in open(path, encoding="utf-8"):
            match = row_re.match(line)
            if match:
                rows[match.group(2)] = int(match.group(1))
        return rows

    def test_docs_match_code_exactly(self):
        from repro.resilience.faults import _JITTER_STREAM, _KINDS

        in_code = {kind: stream for kind, (stream, _, _) in _KINDS.items()}
        in_code["supervise.backoff-jitter"] = _JITTER_STREAM
        assert self.parse_docs_table() == in_code

    def test_every_serving_kind_has_a_stream(self):
        from repro.resilience.faults import (
            _KINDS,
            INGEST_FAULT_KINDS,
            SERVING_FAULT_KINDS,
        )

        assert set(SERVING_FAULT_KINDS) == {
            kind for kind, (stream, _, _) in _KINDS.items() if stream > 100
        }
        # Ingestion kinds occupy the 108-110 block, contiguously.
        assert [_KINDS[k][0] for k in INGEST_FAULT_KINDS] == [108, 109, 110]

    def test_streams_are_unique_across_planes(self):
        from repro.resilience.faults import _JITTER_STREAM, _KINDS

        streams = [stream for stream, _, _ in _KINDS.values()] + [_JITTER_STREAM]
        assert len(streams) == len(set(streams))

    def test_every_rate_field_is_a_plan_field(self):
        fields = _rate_fields()
        assert len(fields) == len(set(fields)) == 14
        assert set(fields) < set(FaultPlan().as_dict())
        assert len(FaultPlan().as_dict()) == 16


def _rate_fields() -> list[str]:
    from repro.resilience.faults import _KINDS

    return [name for _, name, _ in _KINDS.values()]


class TestOnePlanForAllPlanes:
    """A merged plan fires exactly as the single-plane plans it replaces."""

    TRAINING = dict(kill_rate=0.3, delay_rate=0.3, nan_rate=0.3, overflow_rate=0.3)
    SERVING = dict(
        stall_rate=0.3, reload_rate=0.2, corrupt_rate=0.2, score_nan_rate=0.3,
        worker_kill_rate=0.2, worker_reload_rate=0.2, heartbeat_stall_rate=0.2,
        wal_torn_rate=0.2, foldin_nan_rate=0.2, delta_apply_rate=0.2,
    )

    def test_merged_plan_fires_site_for_site(self):
        both = FaultPlan(seed=4, **self.TRAINING, **self.SERVING)
        training = FaultPlan(seed=4, **self.TRAINING)
        serving = FaultPlan(seed=4, **self.SERVING)
        sites = [(step, shard) for step in range(4) for shard in range(4)]
        for kind in ("fault.worker-kill", "fault.delay", "fault.nan-flip",
                     "fault.fp16-overflow"):
            got = [both.fires(kind, *site) for site in sites]
            assert got == [training.fires(kind, *site) for site in sites]
            lanes = [both.victim_lane(kind, *site, num_lanes=9) for site in sites]
            assert lanes == [
                training.victim_lane(kind, *site, num_lanes=9) for site in sites
            ]
        assert expected_fault_events(both, [[(0, 3)] * 4] * 4) == (
            expected_fault_events(training, [[(0, 3)] * 4] * 4)
        )
        for kind in SERVING_FAULT_KINDS:
            got = [both.fires(kind, tick) for tick in range(64)]
            assert got == [serving.fires(kind, tick) for tick in range(64)]
        assert expected_serving_faults(both, 64) == expected_serving_faults(serving, 64)
        assert expected_serving_faults(both, 64)
