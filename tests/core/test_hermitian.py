"""Tests for get_hermitian/get_bias numerics against a naive reference."""

import numpy as np
import pytest

from repro.core import hermitian_and_bias, hermitian_rows
from repro.core.hermitian import HERMITIAN_METHODS
from repro.data import RatingMatrix, SyntheticConfig, generate_ratings
from repro.runtime import CsrView


def naive_hermitian(ratings, theta, lam, count_weighted=True):
    f = theta.shape[1]
    A = np.zeros((ratings.m, f, f))
    b = np.zeros((ratings.m, f))
    for u in range(ratings.m):
        idx, vals = ratings.user_items(u)
        for v, r in zip(idx, vals):
            A[u] += np.outer(theta[v], theta[v])
            b[u] += r * theta[v]
        w = max(len(idx), 1) if count_weighted else 1.0
        A[u] += w * lam * np.eye(f)
    return A, b


@pytest.fixture(scope="module")
def small():
    ratings = generate_ratings(SyntheticConfig(m=60, n=25, nnz=600, seed=3))
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(25, 8)).astype(np.float32)
    return ratings, theta


class TestAgainstNaive:
    def test_matches_reference(self, small):
        ratings, theta = small
        A, b = hermitian_and_bias(ratings, theta, lam=0.1)
        A_ref, b_ref = naive_hermitian(ratings, theta, 0.1)
        np.testing.assert_allclose(A, A_ref, rtol=2e-4, atol=1e-4)
        np.testing.assert_allclose(b, b_ref, rtol=2e-4, atol=1e-4)

    def test_chunked_matches_unchunked(self, small):
        ratings, theta = small
        A1, b1 = hermitian_and_bias(ratings, theta, 0.1, chunk_elems=2_000)
        A2, b2 = hermitian_and_bias(ratings, theta, 0.1, chunk_elems=10**8)
        np.testing.assert_allclose(A1, A2, rtol=1e-5)
        np.testing.assert_allclose(b1, b2, rtol=1e-5)

    def test_symmetry(self, small):
        ratings, theta = small
        A, _ = hermitian_and_bias(ratings, theta, 0.1)
        np.testing.assert_allclose(A, np.swapaxes(A, 1, 2), rtol=1e-5)

    def test_positive_definite(self, small):
        ratings, theta = small
        A, _ = hermitian_and_bias(ratings, theta, 0.1)
        # λ > 0 guarantees SPD: Cholesky must succeed on every row.
        np.linalg.cholesky(A.astype(np.float64))


class TestEdgeCases:
    def test_empty_rows_get_plain_regularizer(self):
        # User 1 has no ratings at all.
        ratings = RatingMatrix.from_coo([0, 2], [0, 1], [1.0, 2.0], m=3, n=2)
        theta = np.ones((2, 4), dtype=np.float32)
        A, b = hermitian_and_bias(ratings, theta, lam=0.5)
        np.testing.assert_allclose(A[1], 0.5 * np.eye(4), atol=1e-6)
        np.testing.assert_allclose(b[1], 0.0)

    def test_trailing_empty_rows(self):
        ratings = RatingMatrix.from_coo([0], [0], [1.0], m=5, n=2)
        theta = np.ones((2, 3), dtype=np.float32)
        A, b = hermitian_and_bias(ratings, theta, lam=1.0)
        for u in (1, 2, 3, 4):
            np.testing.assert_allclose(A[u], np.eye(3), atol=1e-6)

    def test_leading_empty_rows(self):
        ratings = RatingMatrix.from_coo([4], [1], [2.0], m=5, n=2)
        theta = np.arange(6, dtype=np.float32).reshape(2, 3)
        A, b = hermitian_and_bias(ratings, theta, lam=0.0)
        np.testing.assert_allclose(b[4], 2.0 * theta[1], rtol=1e-6)
        np.testing.assert_allclose(b[:4], 0.0)

    def test_row_range(self, small):
        ratings, theta = small
        A_full, b_full = hermitian_and_bias(ratings, theta, 0.1)
        A_part, b_part = hermitian_rows(ratings, theta, 0.1, rows=slice(10, 30))
        np.testing.assert_allclose(A_part, A_full[10:30], rtol=1e-5)
        np.testing.assert_allclose(b_part, b_full[10:30], rtol=1e-5)

    def test_bad_row_range(self, small):
        ratings, theta = small
        with pytest.raises(ValueError):
            hermitian_rows(ratings, theta, 0.1, rows=slice(0, ratings.m + 1))

    def test_theta_shape_mismatch(self, small):
        ratings, _ = small
        with pytest.raises(ValueError, match="columns"):
            hermitian_and_bias(ratings, np.ones((5, 4), dtype=np.float32), 0.1)

    @pytest.mark.parametrize("method", HERMITIAN_METHODS)
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_column_raises(self, method, bad):
        """The gathers run unbuffered (clip mode), so one explicit range
        check keeps a bad column index an ``IndexError``."""
        view = CsrView(
            m=2, n=4, row_ptr=np.array([0, 2, 3]),
            col_idx=np.array([0, bad, 1]), row_val=np.ones(3, np.float32),
        )
        theta = np.ones((4, 3), dtype=np.float32)
        with pytest.raises(IndexError, match="column"):
            hermitian_rows(view, theta, 0.1, method=method)

    def test_negative_lambda(self, small):
        ratings, theta = small
        with pytest.raises(ValueError):
            hermitian_and_bias(ratings, theta, -0.1)


class TestWeightedVariant:
    def test_entry_weights(self, small):
        ratings, theta = small
        w = np.full(ratings.nnz, 2.0, dtype=np.float32)
        A_w, _ = hermitian_rows(ratings, theta, 0.0, entry_weights=w)
        A_1, _ = hermitian_rows(ratings, theta, 0.0)
        np.testing.assert_allclose(A_w, 2.0 * A_1, rtol=1e-5)

    def test_bias_values(self, small):
        ratings, theta = small
        ones = np.ones(ratings.nnz, dtype=np.float32)
        _, b = hermitian_rows(ratings, theta, 0.0, bias_values=ones)
        # b_u = sum of θ over the user's items.
        u = int(np.argmax(ratings.row_counts()))
        idx, _ = ratings.user_items(u)
        np.testing.assert_allclose(b[u], theta[idx].sum(axis=0), rtol=1e-4)

    def test_constant_regularizer(self, small):
        ratings, theta = small
        A_c, _ = hermitian_rows(ratings, theta, 0.7, count_weighted_reg=False)
        A_0, _ = hermitian_rows(ratings, theta, 0.0)
        np.testing.assert_allclose(
            A_c - A_0, np.broadcast_to(0.7 * np.eye(8), A_c.shape), atol=1e-5
        )

    def test_weight_shape_checked(self, small):
        ratings, theta = small
        with pytest.raises(ValueError):
            hermitian_rows(
                ratings, theta, 0.0, entry_weights=np.ones(3, dtype=np.float32)
            )
        with pytest.raises(ValueError):
            hermitian_rows(
                ratings, theta, 0.0, bias_values=np.ones(3, dtype=np.float32)
            )
