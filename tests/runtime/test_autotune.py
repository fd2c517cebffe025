"""Tests for the measured-throughput plan autotuner."""

import numpy as np
import pytest

from repro.core.hermitian import HERMITIAN_METHODS
from repro.data import SyntheticConfig, generate_ratings
from repro.runtime import AutotuneReport, RuntimePlan, autotune_plan
from repro.runtime.autotune import CHUNK_CANDIDATES, _warmup_rows
from repro.runtime.plan import usable_cores


@pytest.fixture(scope="module")
def ratings():
    return generate_ratings(SyntheticConfig(m=120, n=40, nnz=1_200, seed=2))


class TestAutotunePlan:
    def test_returns_valid_measured_report(self, ratings):
        report = autotune_plan(
            ratings, 8, warmup_nnz=300, repeats=1, workers=0
        )
        assert isinstance(report, AutotuneReport)
        assert report.plan.method in HERMITIAN_METHODS
        assert report.plan.chunk_elems in CHUNK_CANDIDATES
        assert 1 <= report.warmup_rows <= ratings.m
        assert all(s >= 0.0 for _, _, s in report.timings)

    def test_winner_is_fastest_candidate(self, ratings):
        report = autotune_plan(
            ratings, 8, warmup_nnz=300, repeats=1, workers=0
        )
        best = min(report.timings, key=lambda t: t[2])
        assert (report.plan.method, report.plan.chunk_elems) == best[:2]

    def test_sweeps_every_method_candidate_pair(self, ratings):
        report = autotune_plan(
            ratings, 8, warmup_nnz=300, repeats=1, workers=0,
            methods=HERMITIAN_METHODS,
        )
        floor = 8 * 8 * 8
        expected = len(HERMITIAN_METHODS) * sum(
            1 for c in CHUNK_CANDIDATES if c >= floor
        )
        assert len(report.timings) == expected

    def test_default_sweep_skips_the_reduceat_oracle(self, ratings):
        report = autotune_plan(
            ratings, 8, warmup_nnz=300, repeats=1, workers=0
        )
        assert {m for m, _, _ in report.timings} == {"grouped"}
        assert report.plan.method == "grouped"

    def test_workers_zero_means_serial_plan(self, ratings):
        plan = autotune_plan(ratings, 4, warmup_nnz=100, workers=0).plan
        assert plan.workers == 0
        assert plan.shards == 1

    def test_default_runs_one_in_process_shard_per_core(self, ratings):
        """``workers=None`` keeps the shards on threads; it never picks
        the fork pool, which measured slower than in-process shards."""
        plan = autotune_plan(ratings, 4, warmup_nnz=100).plan
        assert plan.workers == 0
        assert plan.shards == usable_cores()

    def test_explicit_workers_respected(self, ratings):
        plan = autotune_plan(ratings, 4, warmup_nnz=100, workers=3).plan
        assert plan.workers == 3
        assert plan.shards == 3

    def test_single_method_subset(self, ratings):
        report = autotune_plan(
            ratings, 4, warmup_nnz=100, methods=("grouped",), workers=0
        )
        assert report.plan.method == "grouped"

    def test_as_dict_round_trips_plan(self, ratings):
        report = autotune_plan(ratings, 4, warmup_nnz=100, workers=0)
        payload = report.as_dict()
        assert RuntimePlan(**payload["plan"]) == report.plan
        assert len(payload["timings"]) == len(report.timings)

    def test_invalid_inputs_rejected(self, ratings):
        with pytest.raises(ValueError):
            autotune_plan(ratings, 0)
        with pytest.raises(ValueError):
            autotune_plan(ratings, 4, repeats=0)
        with pytest.raises(ValueError):
            autotune_plan(ratings, 4, methods=("simd",))


class TestIndexProbe:
    def test_skipped_by_default(self, ratings):
        report = autotune_plan(ratings, 4, warmup_nnz=100, workers=0)
        assert report.index_unit_seconds is None
        assert report.plan.index_budget is None

    def test_allowance_converts_to_work_unit_budget(self, ratings):
        report = autotune_plan(
            ratings, 4, warmup_nnz=100, workers=0,
            index_build_seconds=0.05,
        )
        assert report.index_unit_seconds is not None
        assert report.index_unit_seconds > 0
        budget = report.plan.index_budget
        assert budget == int(0.05 / report.index_unit_seconds)
        assert budget > 0

    def test_zero_allowance_means_zero_budget(self, ratings):
        report = autotune_plan(
            ratings, 4, warmup_nnz=100, workers=0, index_build_seconds=0.0
        )
        # Budget 0 is the explicit "never build" sentinel downstream.
        assert report.plan.index_budget == 0
        assert report.index_unit_seconds is not None

    def test_negative_allowance_rejected(self, ratings):
        with pytest.raises(ValueError):
            autotune_plan(
                ratings, 4, warmup_nnz=100, workers=0,
                index_build_seconds=-1.0,
            )

    def test_as_dict_carries_probe_and_plan_budget(self, ratings):
        payload = autotune_plan(
            ratings, 4, warmup_nnz=100, workers=0,
            index_build_seconds=0.02,
        ).as_dict()
        assert payload["index_unit_seconds"] > 0
        revived = RuntimePlan(**payload["plan"])
        assert revived.index_budget == payload["plan"]["index_budget"]

    def test_plan_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            RuntimePlan(index_budget=-1)


class TestWarmupRows:
    def test_prefix_covers_requested_nnz(self):
        ptr = np.array([0, 3, 7, 9, 20])
        assert _warmup_rows(ptr, 7) == 2
        assert _warmup_rows(ptr, 8) == 3

    def test_clamped_to_matrix(self):
        ptr = np.array([0, 3, 7])
        assert _warmup_rows(ptr, 10**9) == 2
        assert _warmup_rows(ptr, 0) == 1
