"""Conformance suite for CG kernel backends (the VF006 contract, pinned).

Every backend in the registry — present and future — runs through the
same contracts the reference oracle satisfies: the Krylov residual bound
against an exact solve, truncated early-stop equivalence, frozen-lane
compaction invariance, FP16 quantize-skip for entry-frozen lanes,
``out=``-aliasing safety under the arena sanitizer, and (for
non-reference backends) numerical equivalence to the reference within
the derived tolerances of :func:`repro.verify.oracles.backend_pair_tolerance`.
A new backend that registers itself is picked up automatically by the
parametrization; it must pass this file unmodified to be mergeable.
"""

import inspect

import numpy as np
import pytest

from repro.core.cg import cg_solve_batched
from repro.core.cg_backends import (
    CG_BACKENDS,
    CGKernelBackend,
    FusedBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.config import CGConfig, Precision
from repro.core.direct import lu_solve_batched
from repro.runtime import plan as plan_mod
from repro.runtime.arena import Workspace
from repro.verify.generators import SPDCase, build_spd_batch
from repro.verify.oracles import (
    CG_KRYLOV_C,
    EPS32,
    FP16_COND_DOMAIN,
    RESIDUAL_SLACK,
    backend_pair_tolerance,
)

BACKENDS = backend_names()
CONDS = [1e2, 1e4, 1e6, 1e8]
FACTORS = [10, 40, 100]


def make_case(f: int, cond: float, fs: int = 0, seed: int = 77, batch: int = 4):
    return SPDCase(
        batch=batch,
        f=f,
        log10_cond=float(np.log10(cond)),
        log10_scale=0.0,
        fs=fs,
        seed=seed,
    )


def spread_batch(batch=12, f=16, seed=3):
    """SPD batch whose lanes converge at very different rates.

    Per-lane eigenvalue spreads plus a logspaced lane scaling make some
    lanes converge within a couple of iterations while others never
    reach ``tol`` — the shape that exercises freezing and compaction.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(batch, f, f)))
    conds = np.logspace(0.5, 3.0, batch)
    eigs = np.stack([np.logspace(0.0, -np.log10(c), f) for c in conds])
    A = np.einsum("bij,bj,bkj->bik", q, eigs, q).astype(np.float32)
    A *= np.logspace(-1, 1, batch)[:, None, None].astype(np.float32)
    b = rng.normal(0, 1.0, (batch, f)).astype(np.float32)
    return A, b


def assert_results_equal(res, ref):
    np.testing.assert_array_equal(res.x, ref.x)
    assert res.iterations == ref.iterations
    assert res.matvec_count == ref.matvec_count
    np.testing.assert_array_equal(res.residual_norms, ref.residual_norms)


def residual_contract(result, b) -> None:
    """VF002: the returned iterate never worsens the zero-start residual."""
    b64 = b.astype(np.float64)
    b_norms = np.sqrt(np.einsum("bf,bf->b", b64, b64))
    limit = RESIDUAL_SLACK * b_norms + 64.0 * EPS32 * np.max(b_norms)
    assert np.all(result.residual_norms <= limit)


class TestRegistry:
    def test_plan_tuple_mirrors_registry(self):
        # runtime.plan deliberately imports nothing from core, so its
        # backend names are a plain literal — this is the pin that keeps
        # the two in sync when a backend is added.
        assert tuple(plan_mod.CG_BACKENDS) == BACKENDS

    def test_default_backend_is_reference(self):
        # The kernel default and the oracle plan stay on the reference
        # backend; the default plan runs the fused fast path.
        assert BACKENDS[0] == "reference"
        assert inspect.signature(cg_solve_batched).parameters["backend"].default == "reference"
        assert plan_mod.ORACLE_PLAN.cg_backend == "reference"
        assert plan_mod.RuntimePlan().cg_backend == "fused"

    def test_get_backend_by_name_and_instance(self):
        ref = get_backend("reference")
        assert ref.name == "reference"
        assert get_backend(ref) is ref
        inst = FusedBackend()
        assert get_backend(inst) is inst  # unregistered instances pass through

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="reference"):
            get_backend("nope")

    def test_non_protocol_rejected(self):
        with pytest.raises(TypeError):
            get_backend(object())

    def test_register_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(FusedBackend())

    def test_register_requires_name(self):
        class Nameless:
            pass

        with pytest.raises(ValueError, match="name"):
            register_backend(Nameless())

    def test_registered_backends_satisfy_protocol(self):
        for name in BACKENDS:
            assert isinstance(get_backend(name), CGKernelBackend)

    def test_third_party_backend_registers_and_solves(self):
        class Doubly(FusedBackend):
            name = "test-doubly"

        register_backend(Doubly())
        try:
            A, b = spread_batch(batch=3, f=6)
            res = cg_solve_batched(
                A, b, config=CGConfig(max_iters=6, tol=1e-5),
                backend="test-doubly",
            )
            assert np.isfinite(res.x).all()
        finally:
            del CG_BACKENDS["test-doubly"]  # keep the registry pristine


@pytest.mark.parametrize("backend", BACKENDS)
class TestConformance:
    """Contracts every registered backend must satisfy."""

    @pytest.mark.parametrize("cond", CONDS)
    @pytest.mark.parametrize("f", FACTORS)
    def test_krylov_bound_converged(self, backend, cond, f):
        case = make_case(f, cond)
        A, b, _ = build_spd_batch(case)
        exact = lu_solve_batched(A, b)
        result = cg_solve_batched(
            A, b, config=CGConfig(max_iters=case.max_iters, tol=0.0),
            backend=backend,
        )
        assert np.isfinite(result.x).all()
        scale = max(float(np.max(np.abs(exact))), 1e-30)
        rel = float(np.max(np.abs(result.x.astype(np.float64) - exact))) / scale
        assert rel <= min(1.0, CG_KRYLOV_C * cond * EPS32)
        residual_contract(result, b)

    @pytest.mark.parametrize("fs", [3, 5])
    def test_truncated_early_stop_matches_reference(self, backend, fs):
        # Under a strict truncation budget no lane reaches the rs-floor,
        # so freeze decisions depend only on tol and the budget — the
        # iteration/matvec counters must agree exactly across backends.
        # (fs == f runs to near-convergence where the relative rs-floor
        # may trip one iteration apart; covered by the residual test.)
        for f, cond in ((10, 1e4), (40, 1e6), (100, 1e8)):
            case = make_case(f, cond, fs=fs)
            A, b, _ = build_spd_batch(case)
            cfg = CGConfig(max_iters=fs, tol=0.0)
            res = cg_solve_batched(A, b, config=cfg, backend=backend)
            ref = cg_solve_batched(A, b, config=cfg, backend="reference")
            assert res.iterations == ref.iterations == fs
            assert res.matvec_count == ref.matvec_count
            residual_contract(res, b)

    def test_truncated_full_f_budget(self, backend):
        for f, cond in ((10, 1e4), (40, 1e6), (100, 1e8)):
            case = make_case(f, cond, fs=f)
            A, b, _ = build_spd_batch(case)
            result = cg_solve_batched(
                A, b, config=CGConfig(max_iters=f, tol=0.0), backend=backend
            )
            assert result.iterations <= f
            assert np.isfinite(result.x).all()
            residual_contract(result, b)

    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP16])
    def test_compaction_modes_bit_identical(self, backend, precision):
        A, b = spread_batch()
        cfg = CGConfig(max_iters=12, tol=1e-2)
        ref = cg_solve_batched(
            A, b, config=cfg, precision=precision,
            compact=False, backend=backend,
        )
        assert 0 < ref.matvec_count < A.shape[0] * ref.iterations  # lanes froze
        for compact in (True, None):
            res = cg_solve_batched(
                A, b, config=cfg, precision=precision,
                compact=compact, backend=backend,
            )
            assert_results_equal(res, ref)

    def test_fp16_quantize_skip_ignores_frozen_rows(self, backend):
        # Lanes converged at entry (zero b, zero start) never load their
        # A rows under FP16 staging: poisoning those rows with NaN must
        # change nothing anywhere.
        A, b = spread_batch(batch=8, f=10)
        frozen = np.array([1, 4, 6])
        b = b.copy()
        b[frozen] = 0.0
        cfg = CGConfig(max_iters=8, tol=1e-3)
        clean = cg_solve_batched(
            A, b, config=cfg, precision=Precision.FP16, backend=backend
        )
        poisoned_A = A.copy()
        poisoned_A[frozen] = np.nan
        res = cg_solve_batched(
            poisoned_A, b, config=cfg, precision=Precision.FP16,
            backend=backend,
        )
        assert_results_equal(res, clean)
        assert np.isfinite(res.x).all()
        np.testing.assert_array_equal(res.x[frozen], 0.0)

    def test_out_aliasing_warm_start_under_sanitizer(self, backend, monkeypatch):
        # ALS warm-starts from the factors living in the very buffer the
        # solver overwrites (x0 is out) — by design.  Under the arena
        # sanitizer this must neither trip a check nor change bits.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        A, b = spread_batch(batch=6, f=12)
        rng = np.random.default_rng(11)
        warm = rng.normal(0, 0.1, b.shape).astype(np.float32)
        cfg = CGConfig(max_iters=8, tol=1e-4)
        ref = cg_solve_batched(
            A, b, x0=warm.copy(), config=cfg, precision=Precision.FP16,
            backend=backend,
        )
        ws = Workspace()
        aliased = warm.copy()
        res = cg_solve_batched(
            A, b, x0=aliased, config=cfg, precision=Precision.FP16,
            workspace=ws, out=aliased, backend=backend,
        )
        assert res.x is aliased
        assert_results_equal(res, ref)

    def test_workspace_path_bit_identical_and_detached(self, backend):
        A, b = spread_batch(batch=6, f=12)
        cfg = CGConfig(max_iters=8, tol=1e-4)
        ref = cg_solve_batched(
            A, b, config=cfg, precision=Precision.FP16, backend=backend
        )
        ws = Workspace()
        res = cg_solve_batched(
            A, b, config=cfg, precision=Precision.FP16, workspace=ws,
            backend=backend,
        )
        assert_results_equal(res, ref)
        snapshot = res.x.copy()
        A2, b2 = spread_batch(batch=6, f=12, seed=4)
        cg_solve_batched(  # clobber the arena with another solve
            A2, b2, config=cfg, precision=Precision.FP16, workspace=ws,
            backend=backend,
        )
        np.testing.assert_array_equal(res.x, snapshot)  # x was detached

    def test_repeatable(self, backend):
        A, b = spread_batch(batch=5, f=9)
        cfg = CGConfig(max_iters=7, tol=1e-4)
        first = cg_solve_batched(
            A, b, config=cfg, precision=Precision.FP16, backend=backend
        )
        second = cg_solve_batched(
            A, b, config=cfg, precision=Precision.FP16, backend=backend
        )
        assert_results_equal(second, first)


@pytest.mark.parametrize(
    "backend", [n for n in BACKENDS if n != "reference"]
)
class TestVersusReference:
    """Non-reference backends against the frozen oracle (VF006 shape)."""

    @pytest.mark.parametrize("cond", CONDS)
    @pytest.mark.parametrize("f", FACTORS)
    def test_converged_within_derived_tolerance_fp32(self, backend, cond, f):
        case = make_case(f, cond)
        A, b, _ = build_spd_batch(case)
        cfg = CGConfig(max_iters=case.max_iters, tol=0.0)
        ref = cg_solve_batched(A, b, config=cfg, backend="reference")
        res = cg_solve_batched(A, b, config=cfg, backend=backend)
        scale = max(float(np.max(np.abs(ref.x))), 1e-30)
        rel = float(np.max(np.abs(res.x.astype(np.float64) - ref.x))) / scale
        assert rel <= backend_pair_tolerance(cond, Precision.FP32)

    @pytest.mark.parametrize("f", FACTORS)
    def test_converged_within_derived_tolerance_fp16(self, backend, f):
        # FP16 comparison only on the κ domain where the bound is
        # non-vacuous (beyond it the backends' equally-valid quantized
        # systems genuinely differ — the VF003 rationale).
        cond = FP16_COND_DOMAIN
        case = make_case(f, cond)
        A, b, _ = build_spd_batch(case)
        cfg = CGConfig(max_iters=case.max_iters, tol=0.0)
        ref = cg_solve_batched(
            A, b, config=cfg, precision=Precision.FP16, backend="reference"
        )
        res = cg_solve_batched(
            A, b, config=cfg, precision=Precision.FP16, backend=backend
        )
        scale = max(float(np.max(np.abs(ref.x))), 1e-30)
        rel = float(np.max(np.abs(res.x.astype(np.float64) - ref.x))) / scale
        assert rel <= backend_pair_tolerance(cond, Precision.FP16)

    def test_fp16_staging_on_the_binary16_grid(self, backend):
        # Whatever rounding a backend uses, every staged value must be
        # exactly representable in binary16 (storage emulation) — ties
        # may resolve differently, off-grid values may not exist.
        rng = np.random.default_rng(5)
        A = (rng.normal(0, 10.0, (3, 8, 8)) ** 3).astype(np.float32)
        ws = Workspace()
        store = get_backend(backend).stage(A, ws, Precision.FP16)
        on_grid = store.astype(np.float16).astype(np.float32)
        sub = np.abs(store) < 2.0**-14  # binary16 subnormals may keep
        np.testing.assert_array_equal(store[~sub], on_grid[~sub])  # precision
        assert np.all(np.abs(store) <= np.float32(65504.0))
