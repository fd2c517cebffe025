"""Tests for the runtime ArenaSanitizer (``REPRO_SANITIZE=1``).

Unit tests for every check, plus the two end-to-end properties: a clean
half-step runs violation-free under the sanitizer with bit-identical
results, and seeded violations (overlapping spans, a stale workspace
view, an out-of-slice write) raise :class:`SanitizerError`.
"""

import numpy as np
import pytest

from repro.core.config import CGConfig, Precision
from repro.data import SyntheticConfig, generate_ratings
from repro.runtime import RuntimePlan, ShardExecutor, Workspace
from repro.runtime import executor as executor_mod
from repro.runtime import sanitizer
from repro.runtime.sanitizer import (
    SanitizerError,
    SliceWitness,
    check_no_overlap,
    check_shard_bounds,
    check_spans,
    sanitizer_enabled,
)

LAM = 0.08
CG = CGConfig(max_iters=5, tol=1e-5)


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    baseline = len(sanitizer.report_log)
    yield
    # fail-fast contract: every logged report must have raised, and no
    # check may append without raising
    del baseline


@pytest.fixture(scope="module")
def problem():
    ratings = generate_ratings(SyntheticConfig(m=60, n=24, nnz=600, seed=9))
    rng = np.random.default_rng(3)
    theta = rng.normal(0, 0.1, (24, 8)).astype(np.float32)
    warm = rng.normal(0, 0.1, (60, 8)).astype(np.float32)
    return ratings, theta, warm


class TestEnabled:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitizer_enabled()

    def test_on_with_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizer_enabled()

    def test_other_values_do_not_enable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "yes")
        assert not sanitizer_enabled()


class TestOverlap:
    def test_raises_on_shared_memory(self):
        buf = np.zeros(10, dtype=np.float32)
        with pytest.raises(SanitizerError, match="shares memory"):
            check_no_overlap("dst", buf[:5], [("src", buf[4:])])

    def test_disjoint_views_pass(self):
        buf = np.zeros(10, dtype=np.float32)
        check_no_overlap("dst", buf[:5], [("src", buf[5:])])

    def test_none_operands_skipped(self):
        check_no_overlap("dst", np.zeros(3), [("maybe", None)])

    def test_violation_is_logged(self):
        buf = np.zeros(4)
        before = len(sanitizer.report_log)
        with pytest.raises(SanitizerError):
            check_no_overlap("dst", buf, [("src", buf)])
        assert len(sanitizer.report_log) == before + 1


class TestBoundsAndSpans:
    def test_in_bounds_slice_passes(self):
        check_shard_bounds(2, 5, 10, context="t")

    @pytest.mark.parametrize("lo, hi", [(-1, 5), (5, 2), (0, 11)])
    def test_bad_slices_raise(self, lo, hi):
        with pytest.raises(SanitizerError, match="escapes"):
            check_shard_bounds(lo, hi, 10, context="t")

    def test_contiguous_cover_passes(self):
        check_spans([(0, 4), (4, 7), (7, 10)], 10, context="t")

    def test_gap_raises(self):
        with pytest.raises(SanitizerError, match="disjoint"):
            check_spans([(0, 4), (5, 10)], 10, context="t")

    def test_overlap_raises(self):
        with pytest.raises(SanitizerError, match="disjoint"):
            check_spans([(0, 5), (4, 10)], 10, context="t")

    def test_short_cover_raises(self):
        with pytest.raises(SanitizerError, match="cover"):
            check_spans([(0, 4), (4, 8)], 10, context="t")


class TestSliceWitness:
    def test_in_slice_write_passes(self):
        out = np.zeros((10, 3), dtype=np.float32)
        w = SliceWitness(out, 3, 6)
        out[3:6] = 7.0
        w.verify(context="t")

    def test_write_below_slice_raises(self):
        out = np.zeros((10, 3), dtype=np.float32)
        w = SliceWitness(out, 3, 6)
        out[1] = 7.0
        with pytest.raises(SanitizerError, match="below"):
            w.verify(context="t")

    def test_write_beyond_slice_raises(self):
        out = np.zeros((10, 3), dtype=np.float32)
        w = SliceWitness(out, 3, 6)
        out[8] = 7.0
        with pytest.raises(SanitizerError, match="beyond"):
            w.verify(context="t")

    def test_nan_garbage_outside_slice_tolerated(self):
        # persistent buffers start as np.empty garbage that may hold NaN
        out = np.full((10, 3), np.nan, dtype=np.float32)
        w = SliceWitness(out, 3, 6)
        out[3:6] = 1.0
        w.verify(context="t")


class TestGenerations:
    def test_generation_bumps_on_grow_not_reuse(self):
        ws = Workspace()
        ws.request("k", (4,))
        g = ws.generation("k")
        ws.request("k", (2,))  # smaller: served from cache
        assert ws.generation("k") == g
        ws.request("k", (64,))  # grows: realloc
        assert ws.generation("k") == g + 1

    def test_release_invalidates(self):
        ws = Workspace()
        ws.request("k", (4,))
        g = ws.generation("k")
        ws.release()
        assert ws.generation("k") == g + 1

    def test_check_current_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        ws = Workspace()
        ws.request("k", (4,))
        ws.check_current("k", token=999, context="t")  # stale but unsanitized

    def test_check_current_raises_on_stale_token(self, sanitized):
        ws = Workspace()
        ws.request("k", (4,))
        token = ws.generation("k")
        ws.request("k", (64,))  # regrow: the old view is dead
        with pytest.raises(SanitizerError, match="reallocated or released"):
            ws.check_current("k", token, context="t")

    def test_check_current_passes_on_live_token(self, sanitized):
        ws = Workspace()
        ws.request("k", (4,))
        ws.check_current("k", ws.generation("k"), context="t")


class TestExecutorUnderSanitizer:
    @pytest.mark.parametrize("plan", [
        RuntimePlan(),
        RuntimePlan(shards=4),
        RuntimePlan(shards=3, workers=2),
    ], ids=["serial", "sharded", "forked"])
    def test_clean_half_step_is_violation_free(
        self, problem, plan, sanitized, monkeypatch
    ):
        ratings, theta, warm = problem
        before = len(sanitizer.report_log)
        with ShardExecutor(plan) as ex:
            result = ex.half_step(
                ratings, theta, warm, lam=LAM, cg_config=CG,
                precision=Precision.FP16,
            )
        assert len(sanitizer.report_log) == before
        assert np.all(np.isfinite(result.factors))

    @pytest.mark.parametrize("cores", [1, 4])
    def test_threaded_lanes_run_sanitized(
        self, problem, sanitized, monkeypatch, cores
    ):
        """The multi-lane path runs every sanitizer check but the
        outside-slice witness, which runs whenever one lane executes."""
        ratings, theta, warm = problem
        witnessed = []
        real_witness = sanitizer.SliceWitness

        def counting_witness(out, lo, hi):
            witnessed.append((lo, hi))
            return real_witness(out, lo, hi)

        monkeypatch.setattr(sanitizer, "SliceWitness", counting_witness)
        monkeypatch.setattr(executor_mod, "usable_cores", lambda: cores)
        monkeypatch.setattr(executor_mod, "LANE_MIN_NNZ", 1)
        before = len(sanitizer.report_log)
        with ShardExecutor(RuntimePlan(shards=5)) as ex:
            for _ in range(2):  # the second half-step reuses every lane's arena
                ex.half_step(
                    ratings, theta, warm, lam=LAM, cg_config=CG,
                    precision=Precision.FP16,
                )
        assert len(sanitizer.report_log) == before
        assert len(witnessed) == (10 if cores == 1 else 0)

    def test_sanitizer_does_not_change_results(self, problem, monkeypatch):
        ratings, theta, warm = problem
        with ShardExecutor(RuntimePlan(shards=3)) as ex:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
            plain = ex.half_step(
                ratings, theta, warm, lam=LAM, cg_config=CG,
                precision=Precision.FP16,
            ).factors.copy()
        with ShardExecutor(RuntimePlan(shards=3)) as ex:
            monkeypatch.setenv("REPRO_SANITIZE", "1")
            checked = ex.half_step(
                ratings, theta, warm, lam=LAM, cg_config=CG,
                precision=Precision.FP16,
            ).factors.copy()
        assert np.array_equal(plain, checked)

    def test_seeded_overlapping_spans_caught(
        self, problem, sanitized, monkeypatch
    ):
        ratings, theta, warm = problem

        def bad_partition(row_ptr, shards):
            m = len(row_ptr) - 1
            half = m // 2
            return [(0, half + 5), (half, m)]  # overlap: rows raced

        monkeypatch.setattr(executor_mod, "partition_rows", bad_partition)
        with ShardExecutor(RuntimePlan(shards=2)) as ex:
            with pytest.raises(SanitizerError, match="disjoint"):
                ex.half_step(
                    ratings, theta, warm, lam=LAM, cg_config=CG,
                    precision=Precision.FP16,
                )

    def test_seeded_out_of_slice_write_caught(
        self, problem, sanitized, monkeypatch
    ):
        ratings, theta, warm = problem
        real_solve = executor_mod.cg_solve_batched

        def leaky_solve(A, b, **kw):
            out = kw.get("out")
            result = real_solve(A, b, **kw)
            if out is not None and out.base is not None:
                out.base[0, 0] += 1.0  # stomp a row outside the slice
            return result

        monkeypatch.setattr(executor_mod, "cg_solve_batched", leaky_solve)
        # The witness runs whenever one lane executes (other lanes would
        # legitimately write the rows outside the slice).
        monkeypatch.setattr(executor_mod, "usable_cores", lambda: 1)
        with ShardExecutor(RuntimePlan(shards=3)) as ex:
            with pytest.raises(SanitizerError, match="shard slice"):
                ex.half_step(
                    ratings, theta, warm, lam=LAM, cg_config=CG,
                    precision=Precision.FP16,
                )
