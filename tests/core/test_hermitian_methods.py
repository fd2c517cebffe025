"""Tests for the hermitian kernel variants and their workspace paths.

``reduceat`` with a workspace/out must be bit-identical to the seed's
allocate-fresh path; ``grouped`` is float32-close but takes a different
summation order, so it gets a tolerance, never exactness.
"""

import warnings

import numpy as np
import pytest

from repro.core.hermitian import (
    HERMITIAN_METHODS,
    _reset_oversized_row_warning,
    hermitian_and_bias,
    hermitian_rows,
)
from repro.data import RatingMatrix, SyntheticConfig, generate_ratings
from repro.runtime import Workspace

LAM = 0.1


@pytest.fixture(scope="module")
def small():
    ratings = generate_ratings(SyntheticConfig(m=70, n=24, nnz=700, seed=9))
    rng = np.random.default_rng(4)
    theta = rng.normal(0, 0.3, (24, 8)).astype(np.float32)
    return ratings, theta


class TestGroupedMethod:
    def test_close_to_reduceat(self, small):
        ratings, theta = small
        A1, b1 = hermitian_and_bias(ratings, theta, LAM)
        A2, b2 = hermitian_and_bias(ratings, theta, LAM, method="grouped")
        np.testing.assert_allclose(A1, A2, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(b1, b2, rtol=1e-4, atol=1e-5)

    def test_chunking_invariant(self, small):
        ratings, theta = small
        A1, b1 = hermitian_and_bias(ratings, theta, LAM, method="grouped")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            A2, b2 = hermitian_and_bias(
                ratings, theta, LAM, method="grouped", chunk_elems=64
            )
        assert np.array_equal(A1, A2)
        assert np.array_equal(b1, b2)

    def test_unknown_method_rejected(self, small):
        ratings, theta = small
        assert set(HERMITIAN_METHODS) == {"reduceat", "grouped"}
        with pytest.raises(ValueError):
            hermitian_and_bias(ratings, theta, LAM, method="simd")


class TestWorkspacePath:
    @pytest.mark.parametrize("method", HERMITIAN_METHODS)
    def test_bit_identical_to_fresh_scratch(self, small, method):
        ratings, theta = small
        ref_A, ref_b = hermitian_and_bias(ratings, theta, LAM, method=method)
        ws = Workspace()
        f = theta.shape[1]
        out = (
            np.empty((ratings.m, f, f), np.float32),
            np.empty((ratings.m, f), np.float32),
        )
        for _ in range(2):  # second pass runs entirely on cached buffers
            A, b = hermitian_and_bias(
                ratings, theta, LAM, method=method, workspace=ws, out=out
            )
            assert A is out[0] and b is out[1]
            assert np.array_equal(A, ref_A)
            assert np.array_equal(b, ref_b)
        ws.reset_counters()
        hermitian_and_bias(
            ratings, theta, LAM, method=method, workspace=ws, out=out
        )
        assert ws.allocations == 0

    @pytest.mark.parametrize("method", HERMITIAN_METHODS)
    def test_stale_out_buffers_are_fully_overwritten(self, method):
        """``grouped`` writes every row with observations and zeroes only
        the empty ones; no stale value of ``out`` survives either kernel."""
        ratings = RatingMatrix.from_coo(
            [1, 1, 3, 4, 4, 4, 6], [0, 2, 1, 0, 1, 2, 2], np.arange(1.0, 8.0),
            m=8, n=3,
        )
        theta = np.random.default_rng(3).normal(0, 1, (3, 4)).astype(np.float32)
        ref_A, ref_b = hermitian_and_bias(ratings, theta, LAM, method=method)
        out = (np.full((8, 4, 4), np.nan, np.float32), np.full((8, 4), np.nan, np.float32))
        A, b = hermitian_and_bias(ratings, theta, LAM, method=method, out=out)
        assert np.array_equal(A, ref_A)
        assert np.array_equal(b, ref_b)

    def test_rows_slice_matches_full(self, small):
        ratings, theta = small
        full_A, full_b = hermitian_and_bias(ratings, theta, LAM)
        A, b = hermitian_rows(ratings, theta, LAM, rows=slice(10, 40))
        assert np.array_equal(A, full_A[10:40])
        assert np.array_equal(b, full_b[10:40])

    def test_out_shape_validated(self, small):
        ratings, theta = small
        f = theta.shape[1]
        bad = (
            np.empty((ratings.m, f, f + 1), np.float32),
            np.empty((ratings.m, f), np.float32),
        )
        with pytest.raises(ValueError):
            hermitian_and_bias(ratings, theta, LAM, out=bad)


class TestOversizedRowClamp:
    def test_budget_clamped_row_still_correct(self, small):
        ratings, theta = small
        ref = hermitian_and_bias(ratings, theta, LAM)
        _reset_oversized_row_warning()
        with pytest.warns(RuntimeWarning, match="chunk budget"):
            clamped = hermitian_and_bias(ratings, theta, LAM, chunk_elems=1)
        assert np.array_equal(ref[0], clamped[0])
        assert np.array_equal(ref[1], clamped[1])

    def test_warns_only_once(self, small):
        ratings, theta = small
        _reset_oversized_row_warning()
        with pytest.warns(RuntimeWarning):
            hermitian_and_bias(ratings, theta, LAM, chunk_elems=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hermitian_and_bias(ratings, theta, LAM, chunk_elems=1)

    def test_ample_budget_never_warns(self, small):
        ratings, theta = small
        _reset_oversized_row_warning()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hermitian_and_bias(ratings, theta, LAM)
