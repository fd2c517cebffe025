"""Root-mean-square error on held-out ratings (the paper's test metric)."""

from __future__ import annotations

import numpy as np

from ..core.scratch import check_indices
from ..data.sparse import RatingMatrix

__all__ = ["RMSE_BLOCK", "predict_entries", "rmse"]

#: Entries per gather block of :func:`rmse` (two 2 MB buffers at f=32).
RMSE_BLOCK = 16_384


def predict_entries(
    x: np.ndarray, theta: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Predicted ratings ``x_uᵀ θ_v`` for the given (u, v) pairs."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have the same shape")
    if rows.size and (rows.max() >= x.shape[0] or cols.max() >= theta.shape[0]):
        raise IndexError("entry index outside factor matrices")
    return np.einsum("ij,ij->i", x[rows], theta[cols])


def rmse(x: np.ndarray, theta: np.ndarray, ratings: RatingMatrix) -> float:
    """RMSE of the model ``X·Θᵀ`` over the observed entries of ``ratings``.

    Only observed entries count (the paper's explicit-feedback protocol);
    an empty matrix yields NaN rather than a misleading 0.  The
    predictions are formed in blocks of :data:`RMSE_BLOCK` entries, so
    the gathered factor rows never exceed two ``(RMSE_BLOCK, f)``
    buffers; the result is bit-identical to
    ``sqrt(mean((predict_entries(...) - vals)**2))``.
    """
    nnz = ratings.nnz
    if nnz == 0:
        return float("nan")
    if ratings.m > x.shape[0]:
        raise IndexError("entry index outside factor matrices")
    check_indices(ratings.col_idx, theta.shape[0], "column")
    rows = np.repeat(np.arange(ratings.m), ratings.row_counts())
    block = min(RMSE_BLOCK, nnz)
    f = x.shape[1]
    xb = np.empty((block, f), dtype=x.dtype)
    tb = np.empty((block, f), dtype=theta.dtype)
    pred = np.empty(block, dtype=np.result_type(x, theta))
    err = np.empty(nnz, dtype=np.result_type(pred, ratings.row_val))
    for lo in range(0, nnz, block):
        hi = min(lo + block, nnz)
        k = hi - lo
        np.take(x, rows[lo:hi], axis=0, out=xb[:k], mode="clip")
        np.take(theta, ratings.col_idx[lo:hi], axis=0, out=tb[:k], mode="clip")
        np.einsum("ij,ij->i", xb[:k], tb[:k], out=pred[:k])
        np.subtract(pred[:k], ratings.row_val[lo:hi], out=err[lo:hi])
    np.multiply(err, err, out=err)
    return float(np.sqrt(np.mean(err)))
