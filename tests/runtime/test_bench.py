"""Tests for the perf-regression bench harness and its baseline gate."""

import dataclasses
import json
from pathlib import Path

import pytest

import repro.runtime.executor as executor_module
from repro.runtime import RuntimePlan
from repro.runtime.bench import (
    BASELINE_SCHEMA,
    QUICK_BENCH,
    SCHEMA,
    BenchConfig,
    compare_against,
    run_bench,
    write_report,
)

TINY = BenchConfig(
    m=250, n=60, nnz=1_800, f=8, repeats=1, cg_iters=3,
    catalog_items=3_000, retrieval_users=128, retrieval_requests=32,
    retrieval_batch=8, retrieval_k=5,
    fleet_users=64, fleet_items=256, fleet_requests=32, fleet_batch=8,
    fleet_workers=2, fleet_k=5,
)


@pytest.fixture(scope="module")
def result():
    return run_bench(TINY, workers=0)


def make_baseline(**sections):
    return {
        "schema": BASELINE_SCHEMA,
        "tolerance": 0.25,
        "sections": {
            name: {"speedup": ref} for name, ref in sections.items()
        },
    }


class TestRunBench:
    def test_default_times_the_training_layout(self):
        # workers=None times RuntimePlan(), the layout a default training
        # run executes; the module fixture's workers=0 is the serial plan.
        assert run_bench(TINY)["plan"] == RuntimePlan().as_dict()

    def test_report_shape(self, result):
        assert result["schema"] == SCHEMA
        assert set(result["sections"]) == {
            "hermitian", "cg", "epoch", "retrieval", "fleet", "ingest"
        }
        for section in result["sections"].values():
            assert section["legacy_seconds"] > 0
            assert section["optimized_seconds"] > 0
            assert section["speedup"] > 0
        assert result["config"] == TINY.as_dict()
        assert result["plan"] == RuntimePlan(shards=1).as_dict()
        assert "autotune" not in result

    def test_retrieval_section_shape(self, result):
        retrieval = result["sections"]["retrieval"]
        assert retrieval["items"] == TINY.catalog_items
        assert retrieval["k"] == TINY.retrieval_k
        assert retrieval["ncells"] >= 1
        assert 1 <= retrieval["nprobe"] <= retrieval["ncells"]
        assert retrieval["build_seconds"] > 0
        assert 0.0 < retrieval["scored_fraction"] <= 1.0
        assert 0.0 <= retrieval["recall_at_k"] <= 1.0

    def test_fleet_section_shape(self, result):
        fleet = result["sections"]["fleet"]
        assert fleet["workers"] == TINY.fleet_workers
        assert fleet["requests"] == TINY.fleet_requests
        assert fleet["requests_per_s"] > 0
        assert fleet["legacy_requests_per_s"] > 0
        assert fleet["deadline_misses"] >= 0
        assert 0.0 <= fleet["deadline_miss_rate"] <= 1.0
        assert fleet["p99_latency_ticks"] is None or (
            fleet["p99_latency_ticks"] >= 0
        )

    def test_ingest_section_shape(self, result):
        ingest = result["sections"]["ingest"]
        assert ingest["delta_ratings"] == TINY.ingest_delta_ratings
        assert ingest["shards"] == TINY.ingest_shards
        assert ingest["rows_folded"] > 0
        assert ingest["foldin_ms"] > 0
        assert ingest["foldin_ms"] == ingest["optimized_seconds"] * 1e3

    def test_optimized_path_matches_legacy(self, result):
        assert result["numerics"]["equivalent"] is True

    def test_zero_steady_state_allocations(self, result):
        """The acceptance criterion, measured end-to-end by the harness."""
        assert result["arena"]["steady_state_allocations"] == 0
        assert result["arena"]["resident_bytes"] > 0
        assert result["arena"]["peak_resident_bytes"] >= (
            result["arena"]["resident_bytes"]
        )
        assert result["arena"]["retrieval_steady_state_allocations"] == 0

    def test_arena_report_holds_the_epoch_executors_scratch_only(
        self, monkeypatch
    ):
        """The micro legs' whole-matrix buffers (one A per row, full-batch
        CG scratch) live in arenas of their own: at 16-row solve blocks
        the reported peak stays below one full A."""
        cfg = dataclasses.replace(TINY, f=32)
        f = cfg.f
        monkeypatch.setattr(executor_module, "SOLVE_BLOCK_BYTES", 16 * f * f * 4)
        arena = run_bench(cfg, workers=0)["arena"]
        assert 0 < arena["peak_resident_bytes"] < cfg.m * f * f * 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(m=0)
        with pytest.raises(ValueError):
            BenchConfig(repeats=0)
        with pytest.raises(ValueError):
            BenchConfig(lam=-0.1)
        with pytest.raises(ValueError):
            BenchConfig(catalog_items=0)
        with pytest.raises(ValueError):
            BenchConfig(retrieval_k=0)
        assert QUICK_BENCH.repeats >= 1


class TestCompareAgainst:
    def test_passes_within_tolerance(self, result):
        baseline = make_baseline(
            **{k: 1e-6 for k in result["sections"]}
        )
        ok, messages = compare_against(result, baseline)
        assert ok
        assert all(m.startswith("PASS") for m in messages)

    def test_fails_on_regression(self, result):
        baseline = make_baseline(hermitian=1e9)
        ok, messages = compare_against(result, baseline)
        assert not ok
        assert any(m.startswith("FAIL hermitian") for m in messages)

    def test_fails_on_missing_section(self, result):
        baseline = make_baseline(warp_shuffle=1.0)
        ok, messages = compare_against(result, baseline)
        assert not ok
        assert any("missing" in m for m in messages)

    def test_fails_on_steady_state_allocations(self, result):
        dirty = dict(result, arena={"steady_state_allocations": 3})
        ok, messages = compare_against(dirty, make_baseline())
        assert not ok
        assert any("FAIL arena" in m for m in messages)

    def test_recall_floor_passes_when_met(self, result):
        baseline = make_baseline(retrieval=1e-6)
        baseline["sections"]["retrieval"]["recall_floor"] = 0.0
        ok, messages = compare_against(result, baseline)
        assert ok
        assert any("recall@k" in m and m.startswith("PASS") for m in messages)

    def test_recall_floor_is_a_hard_floor(self, result):
        # The floor ignores the tolerance band entirely: a measured
        # recall below it fails even at the widest allowed tolerance.
        dirty = dict(result)
        dirty["sections"] = dict(result["sections"])
        dirty["sections"]["retrieval"] = dict(
            result["sections"]["retrieval"], recall_at_k=0.10
        )
        baseline = make_baseline(retrieval=1e-6)
        baseline["sections"]["retrieval"]["recall_floor"] = 0.95
        ok, messages = compare_against(dirty, baseline, tolerance=0.99)
        assert not ok
        assert any(
            m.startswith("FAIL retrieval") and "recall@k" in m
            for m in messages
        )

    def test_deadline_miss_ceiling_passes_when_met(self, result):
        baseline = make_baseline(fleet=1e-6)
        baseline["sections"]["fleet"]["deadline_miss_ceiling"] = 1.0
        ok, messages = compare_against(result, baseline)
        assert ok
        assert any(
            "deadline-miss" in m and m.startswith("PASS") for m in messages
        )

    def test_deadline_miss_ceiling_is_a_hard_gate(self, result):
        # Like recall_floor, the ceiling ignores the tolerance band: a
        # measured miss rate above it fails at any tolerance.
        dirty = dict(result)
        dirty["sections"] = dict(result["sections"])
        dirty["sections"]["fleet"] = dict(
            result["sections"]["fleet"], deadline_miss_rate=0.5
        )
        baseline = make_baseline(fleet=1e-6)
        baseline["sections"]["fleet"]["deadline_miss_ceiling"] = 0.01
        ok, messages = compare_against(dirty, baseline, tolerance=0.99)
        assert not ok
        assert any(
            m.startswith("FAIL fleet") and "deadline-miss" in m
            for m in messages
        )

    def test_foldin_ceiling_passes_when_met(self, result):
        baseline = make_baseline(ingest=1e-6)
        baseline["sections"]["ingest"]["foldin_ms_ceiling"] = 1e9
        ok, messages = compare_against(result, baseline)
        assert ok
        assert any(
            "fold-in latency" in m and m.startswith("PASS") for m in messages
        )

    def test_foldin_ceiling_is_a_hard_gate(self, result):
        dirty = dict(result)
        dirty["sections"] = dict(result["sections"])
        dirty["sections"]["ingest"] = dict(
            result["sections"]["ingest"], foldin_ms=5_000.0
        )
        baseline = make_baseline(ingest=1e-6)
        baseline["sections"]["ingest"]["foldin_ms_ceiling"] = 100.0
        ok, messages = compare_against(dirty, baseline, tolerance=0.99)
        assert not ok
        assert any(
            m.startswith("FAIL ingest") and "fold-in latency" in m
            for m in messages
        )

    def test_foldin_ceiling_fails_when_latency_missing(self, result):
        dirty = dict(result)
        dirty["sections"] = dict(result["sections"])
        ingest = dict(result["sections"]["ingest"])
        ingest.pop("foldin_ms")
        dirty["sections"]["ingest"] = ingest
        baseline = make_baseline(ingest=1e-6)
        baseline["sections"]["ingest"]["foldin_ms_ceiling"] = 1e9
        ok, messages = compare_against(dirty, baseline)
        assert not ok
        assert any("missing" in m and "fold-in" in m for m in messages)

    def test_deadline_miss_ceiling_fails_when_rate_missing(self, result):
        dirty = dict(result)
        dirty["sections"] = dict(result["sections"])
        fleet = dict(result["sections"]["fleet"])
        fleet.pop("deadline_miss_rate")
        dirty["sections"]["fleet"] = fleet
        baseline = make_baseline(fleet=1e-6)
        baseline["sections"]["fleet"]["deadline_miss_ceiling"] = 0.01
        ok, messages = compare_against(dirty, baseline)
        assert not ok

    def test_fails_on_retrieval_steady_state_allocations(self, result):
        dirty = dict(
            result,
            arena=dict(result["arena"], retrieval_steady_state_allocations=2),
        )
        ok, messages = compare_against(dirty, make_baseline())
        assert not ok
        assert any("retrieval" in m and m.startswith("FAIL") for m in messages)

    def test_fails_on_numeric_divergence(self, result):
        dirty = dict(result, numerics={"equivalent": False})
        ok, messages = compare_against(dirty, make_baseline())
        assert not ok
        assert any("FAIL numerics" in m for m in messages)

    def test_rejects_wrong_schema(self, result):
        with pytest.raises(ValueError):
            compare_against(result, {"schema": "bogus"})

    def test_rejects_bad_tolerance(self, result):
        with pytest.raises(ValueError):
            compare_against(result, make_baseline(), tolerance=1.5)

    def test_tolerance_override_widens_the_floor(self, result):
        slow = min(s["speedup"] for s in result["sections"].values())
        baseline = make_baseline(
            **{k: slow * 1.05 for k in result["sections"]}
        )
        ok_strict, _ = compare_against(result, baseline, tolerance=0.0)
        ok_loose, _ = compare_against(result, baseline, tolerance=0.5)
        assert not ok_strict
        assert ok_loose


class TestCommittedReport:
    def test_carries_every_gated_section(self):
        root = Path(__file__).parents[2]
        report = json.loads((root / "BENCH_runtime.json").read_text())
        baseline = json.loads(
            (root / "benchmarks" / "baseline.json").read_text()
        )
        assert report["schema"] == SCHEMA
        assert set(baseline["sections"]) <= set(report["sections"])
        assert "autotune" not in report
        assert RuntimePlan.from_dict(report["plan"]).as_dict() == report["plan"]


class TestWriteReport:
    def test_round_trips_json(self, result, tmp_path):
        path = write_report(result, tmp_path / "BENCH_runtime.json")
        assert json.loads(path.read_text()) == result
