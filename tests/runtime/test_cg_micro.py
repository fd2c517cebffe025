"""CG fast-path properties: allocation-free steady state, plan
serialization, and the gated ``cg`` bench floor.

The speed *ratio* itself is asserted conservatively here (tiny shapes on
shared CI hardware are noisy); the real 2x floor is enforced by the
``bench-smoke`` CI job against ``benchmarks/baseline.json`` at the QUICK
shape, where the measurement is stable.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.cg import cg_solve_batched
from repro.core.cg_backends import backend_names
from repro.core.config import CGConfig, Precision
from repro.runtime.arena import Workspace
from repro.runtime.bench import BenchConfig, compare_against, run_bench
from repro.runtime.plan import CG_BACKENDS, RuntimePlan

TINY = BenchConfig(m=250, n=60, nnz=1_800, f=8, repeats=1, cg_iters=3)


def spd_problem(batch=400, f=24, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.normal(0, 0.3, (batch, f, f)).astype(np.float32)
    A = np.einsum("bij,bkj->bik", M, M) + 0.1 * np.eye(f, dtype=np.float32)
    b = rng.normal(0, 1.0, (batch, f)).astype(np.float32)
    warm = rng.normal(0, 0.1, (batch, f)).astype(np.float32)
    return A, b, warm


class TestZeroSteadyStateAllocations:
    @pytest.mark.parametrize("backend", backend_names())
    def test_warm_solver_never_allocates(self, backend):
        A, b, warm = spd_problem()
        ws = Workspace()
        out = np.empty_like(b)
        cfg = CGConfig(max_iters=5, tol=1e-5)

        def solve(compact):
            return cg_solve_batched(
                A, b, x0=warm, config=cfg, precision=Precision.FP16,
                workspace=ws, compact=compact, out=out, backend=backend,
            )

        for compact in (False, True, None):
            solve(compact)  # warm every buffer each mode touches
        ws.reset_counters()
        for compact in (False, True, None):
            solve(compact)
            solve(compact)
        assert ws.allocations == 0, (
            f"backend {backend!r} allocated in steady state: "
            f"{ws.allocations_by_key}"
        )
        assert ws.allocations_by_key == {}
        assert ws.reuses > 0

    def test_per_key_counter_names_the_grower(self):
        # The observability contract the assertion above relies on: when
        # a steady-state probe trips, allocations_by_key names the
        # buffer, so the failure message points at the kernel to blame.
        ws = Workspace()
        ws.request("cg.x", (4, 8))
        ws.request("cg.x", (4, 8))  # reuse: no new entry
        ws.request("cg.x", (16, 8))  # growth: counted again
        ws.request("cg.r", (4, 8))
        assert ws.allocations_by_key == {"cg.x": 2, "cg.r": 1}
        assert sum(ws.allocations_by_key.values()) == ws.allocations
        ws.reset_counters()
        assert ws.allocations_by_key == {}


class TestFusedFasterThanLegacy:
    def test_fused_beats_legacy_cg_leg(self):
        # Conservative floor (the committed baseline says 2x at the
        # bench shape; 1.1x here keeps tiny-shape CI noise out).
        A, b, warm = spd_problem(batch=1500, f=32, seed=1)
        cfg = CGConfig(max_iters=6, tol=1e-5)

        def best_of(k, fn):
            best = float("inf")
            for _ in range(k):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        legacy = best_of(5, lambda: cg_solve_batched(
            A, b, x0=warm, config=cfg, precision=Precision.FP16,
            compact=False, backend="reference",
        ))
        ws = Workspace()
        out = np.empty_like(b)

        def fused():
            cg_solve_batched(
                A, b, x0=warm, config=cfg, precision=Precision.FP16,
                workspace=ws, out=out, backend="fused",
            )

        fused()  # warm
        assert legacy / best_of(5, fused) >= 1.1


class TestPlanRoundTrip:
    def test_selected_plan_round_trips_through_json(self):
        plan = RuntimePlan()
        revived = RuntimePlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert revived == plan

    @pytest.mark.parametrize("backend", CG_BACKENDS)
    @pytest.mark.parametrize("compact", [None, True, False])
    def test_every_backend_compact_pair_round_trips(self, backend, compact):
        plan = RuntimePlan(cg_backend=backend, compact_cg=compact)
        assert RuntimePlan.from_dict(plan.as_dict()) == plan

    def test_pre_backend_reports_load_with_defaults(self):
        # Reports written before cg_backend existed must still load.
        legacy = RuntimePlan().as_dict()
        del legacy["cg_backend"]
        assert RuntimePlan.from_dict(legacy).cg_backend == "reference"

    def test_pre_method_reports_load_as_the_oracle_kernel(self):
        # A report without a method key ran the seed hermitian kernel;
        # it must not load as the newer default.
        legacy = RuntimePlan().as_dict()
        del legacy["method"]
        assert RuntimePlan.from_dict(legacy).method == "reduceat"

    def test_pre_retirement_index_budget_key_is_dropped(self):
        # The plan of the BENCH_runtime.json committed while plans still
        # carried an index_budget field; such reports must still load.
        old = {
            "arena": True, "cg_backend": "fused", "chunk_elems": 1048576,
            "compact_cg": None, "index_budget": None, "method": "grouped",
            "shards": 1, "workers": 0,
        }
        plan = RuntimePlan.from_dict(old)
        assert plan == RuntimePlan(chunk_elems=1048576, shards=1)
        assert "index_budget" not in plan.as_dict()
        with pytest.raises(ValueError, match="cg_backnd"):
            RuntimePlan.from_dict(old | {"cg_backnd": "fused"})

    def test_unknown_keys_rejected(self):
        payload = RuntimePlan().as_dict() | {"cg_backnd": "fused"}
        with pytest.raises(ValueError, match="cg_backnd"):
            RuntimePlan.from_dict(payload)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="cg_backend"):
            RuntimePlan(cg_backend="nope")


class TestBenchEmitsCGSection:
    @pytest.fixture(scope="class")
    def result(self):
        return run_bench(TINY, workers=0)

    def test_cg_section_present_with_speedup(self, result):
        section = result["sections"]["cg"]
        assert section["speedup"] > 0
        assert section["legacy_seconds"] > 0
        assert result["plan"]["cg_backend"] in CG_BACKENDS

    def test_committed_baseline_gates_cg_floor(self, result):
        # The committed baseline demands >= 2x at the bench shape; prove
        # the gate machinery *would* fail a regressed cg section rather
        # than asserting tiny-shape timings here.
        baseline = {
            "schema": "repro.bench-baseline/v1",
            "tolerance": 0.0,
            "sections": {"cg": {"speedup": result["sections"]["cg"]["speedup"]}},
        }
        ok, messages = compare_against(result, baseline)
        assert any("cg" in m and m.startswith("PASS") for m in messages)
        regressed = dict(result)
        regressed["sections"] = dict(result["sections"])
        regressed["sections"]["cg"] = dict(result["sections"]["cg"])
        regressed["sections"]["cg"]["speedup"] = (
            result["sections"]["cg"]["speedup"] * 0.5
        )
        ok, messages = compare_against(regressed, baseline)
        assert not ok
        assert any("FAIL cg" in m for m in messages)

    def test_committed_baseline_requires_2x_cg(self):
        committed = json.loads(
            (Path(__file__).parents[2] / "benchmarks" / "baseline.json")
            .read_text()
        )
        assert committed["sections"]["cg"]["speedup"] >= 2.0
