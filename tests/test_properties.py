"""Property-based tests (hypothesis) on core data structures and invariants.

These cover the algebraic contracts the rest of the system leans on:
cache LRU behaviour, transaction accounting, CG-vs-exact agreement,
hermitian linearity, split partitioning and FP16 quantization bounds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    CGConfig,
    Precision,
    cg_solve_batched,
    hermitian_and_bias,
    lu_solve_batched,
    quantize,
)
from repro.data import RatingMatrix, train_test_split
from repro.gpusim import (
    SetAssociativeCache,
    analytic_hit_rate,
    coalesced,
    strided,
)
from repro.runtime.executor import partition_rows

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# gpusim properties.
# ----------------------------------------------------------------------
class TestCacheProperties:
    @given(
        addrs=st.lists(st.integers(0, 2**16), min_size=1, max_size=300),
        ways=st.sampled_from([1, 2, 4]),
    )
    def test_hits_plus_misses_equals_accesses(self, addrs, ways):
        c = SetAssociativeCache(1024, 32, ways)
        for a in addrs:
            c.access(a)
        assert c.stats.hits + c.stats.misses == c.stats.accesses == len(addrs)

    @given(addrs=st.lists(st.integers(0, 2**12), min_size=1, max_size=200))
    def test_immediate_rereference_always_hits(self, addrs):
        c = SetAssociativeCache(2048, 32, 4)
        for a in addrs:
            c.access(a)
            assert c.access(a)  # MRU line cannot be evicted by itself

    @given(addrs=st.lists(st.integers(0, 2**14), min_size=1, max_size=200))
    def test_resident_lines_bounded_by_capacity(self, addrs):
        c = SetAssociativeCache(512, 32, 2)
        for a in addrs:
            c.access(a)
        assert c.resident_lines() <= 512 // 32

    @given(
        ws=st.floats(0, 1e7),
        cache=st.floats(1, 1e6),
        reuse=st.floats(1, 64),
    )
    def test_analytic_hit_rate_bounds(self, ws, cache, reuse):
        h = analytic_hit_rate(ws, cache, reuse)
        assert 0.0 <= h <= (reuse - 1) / reuse + 1e-12


class TestPatternProperties:
    @given(n=st.integers(0, 10**6), eb=st.sampled_from([2, 4]))
    def test_coalesced_moves_at_least_payload(self, n, eb):
        p = coalesced(n, element_bytes=eb)
        assert p.moved_bytes >= p.total_bytes
        assert 0 < p.efficiency <= 1 or n == 0

    @given(
        n=st.integers(1, 10**6),
        stride=st.integers(1, 4096),
        eb=st.sampled_from([2, 4]),
    )
    def test_strided_never_beats_coalesced_wire(self, n, stride, eb):
        s = strided(n, stride_bytes=stride, element_bytes=eb)
        c = coalesced(n, element_bytes=eb)
        assert s.moved_bytes >= c.moved_bytes - s.transaction_bytes

    @given(n=st.integers(0, 10**5), k=st.floats(0, 8))
    def test_scaling_is_linear(self, n, k):
        p = coalesced(n)
        q = p.scaled(k)
        assert q.total_bytes == pytest.approx(p.total_bytes * k, abs=2)


# ----------------------------------------------------------------------
# Solver properties.
# ----------------------------------------------------------------------
def spd_batches():
    return hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 6), st.integers(2, 10)).map(
            lambda t: (t[0], t[1], t[1])
        ),
        elements=st.floats(-1, 1, width=32),
    ).map(lambda Q: np.einsum("bij,bkj->bik", Q, Q) + 2 * np.eye(Q.shape[1], dtype=np.float32))


class TestSolverProperties:
    @given(A=spd_batches(), seed=st.integers(0, 10))
    def test_cg_converges_to_lu(self, A, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=A.shape[:2]).astype(np.float32)
        exact = lu_solve_batched(A, b)
        approx = cg_solve_batched(A, b, config=CGConfig(max_iters=60, tol=1e-7)).x
        np.testing.assert_allclose(approx, exact, rtol=2e-2, atol=2e-2)

    @given(A=spd_batches())
    def test_cg_residual_never_worse_than_start(self, A):
        b = np.ones(A.shape[:2], dtype=np.float32)
        res = cg_solve_batched(A, b, config=CGConfig(max_iters=4, tol=0.0))
        start = np.sqrt(np.einsum("bf,bf->b", b, b))
        assert (res.residual_norms <= start + 1e-3).all()

    @given(A=spd_batches(), scale=st.floats(1e-3, 1e3))
    def test_solution_scales_linearly_with_rhs(self, A, scale):
        b = np.ones(A.shape[:2], dtype=np.float32)
        x1 = cg_solve_batched(A, b, config=CGConfig(max_iters=40, tol=0.0)).x
        x2 = cg_solve_batched(
            A, (scale * b).astype(np.float32), config=CGConfig(max_iters=40, tol=0.0)
        ).x
        np.testing.assert_allclose(x2, scale * x1, rtol=5e-2, atol=1e-4 * scale)


class TestQuantizeProperties:
    @given(
        a=hnp.arrays(
            np.float32, st.integers(1, 100), elements=st.floats(-1e4, 1e4, width=32)
        )
    )
    def test_fp16_roundtrip_relative_error(self, a):
        q = quantize(a, Precision.FP16)
        err = np.abs(q - a)
        tol = np.maximum(np.abs(a) * 2**-10, 1e-7)
        assert (err <= tol + 1e-6).all()

    @given(
        a=hnp.arrays(
            np.float32, st.integers(1, 100), elements=st.floats(-1e8, 1e8, width=32)
        )
    )
    def test_fp16_always_finite(self, a):
        assert np.isfinite(quantize(a, Precision.FP16)).all()

    @given(
        a=hnp.arrays(
            np.float32, st.integers(1, 50), elements=st.floats(-100, 100, width=32)
        )
    )
    def test_quantize_idempotent(self, a):
        q1 = quantize(a, Precision.FP16)
        q2 = quantize(q1, Precision.FP16)
        np.testing.assert_array_equal(q1, q2)


# ----------------------------------------------------------------------
# Data properties.
# ----------------------------------------------------------------------
@st.composite
def coo_matrices(draw):
    m = draw(st.integers(2, 30))
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.integers(0, m, size=k)
    cols = rng.integers(0, n, size=k)
    vals = rng.uniform(0.5, 5.0, size=k).astype(np.float32)
    return RatingMatrix.from_coo(rows, cols, vals, m=m, n=n)


class TestDataProperties:
    @given(r=coo_matrices())
    def test_csr_csc_views_agree(self, r):
        r.validate()
        from_rows = r.to_scipy().toarray()
        rebuilt = np.zeros_like(from_rows)
        for v in range(r.n):
            users, vals = r.item_users(v)
            rebuilt[users, v] = vals
        np.testing.assert_allclose(from_rows, rebuilt, rtol=1e-6)

    @given(r=coo_matrices())
    def test_transpose_involution(self, r):
        tt = r.transpose().transpose()
        assert (tt.to_scipy() != r.to_scipy()).nnz == 0

    @given(r=coo_matrices(), frac=st.floats(0.05, 0.9), seed=st.integers(0, 50))
    def test_split_is_exact_partition(self, r, frac, seed):
        s = train_test_split(r, frac, seed=seed)
        assert s.train.nnz + s.test.nnz == r.nnz
        diff = (s.train.to_scipy() + s.test.to_scipy()) - r.to_scipy()
        assert abs(diff).max() < 1e-5 if r.nnz else True

    @given(
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        parts=st.integers(1, 8),
    )
    def test_partition_rows_contiguous_cover(self, counts, parts):
        ptr = np.concatenate([[0], np.cumsum(counts)])
        ranges = partition_rows(ptr, parts)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(counts)
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
            assert a <= b and c <= d


class TestHermitianProperties:
    @given(r=coo_matrices(), seed=st.integers(0, 20))
    def test_linearity_in_theta_outer(self, r, seed):
        """A(2θ) = 4·A(θ) - 3·λ n I (the quadratic form scales by 4)."""
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=(r.n, 4)).astype(np.float32)
        lam = 0.3
        A1, b1 = hermitian_and_bias(r, theta, lam)
        A2, b2 = hermitian_and_bias(r, 2 * theta, lam)
        reg = lam * np.maximum(r.row_counts(), 1)[:, None, None] * np.eye(4)
        np.testing.assert_allclose(
            A2 - reg, 4 * (A1 - reg), rtol=5e-3, atol=1e-3
        )
        np.testing.assert_allclose(b2, 2 * b1, rtol=5e-3, atol=1e-3)

    @given(r=coo_matrices(), seed=st.integers(0, 20))
    def test_hermitian_symmetric_psd(self, r, seed):
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=(r.n, 3)).astype(np.float32)
        A, _ = hermitian_and_bias(r, theta, 0.1)
        np.testing.assert_allclose(A, np.swapaxes(A, 1, 2), atol=1e-4)
        eig = np.linalg.eigvalsh(A.astype(np.float64))
        assert (eig > 0).all()
