"""Tests for RMSE and convergence-curve utilities."""

import importlib
import math

import numpy as np
import pytest

from repro.data import RatingMatrix
from repro.data.datasets import load_surrogate
from repro.metrics import TrainingCurve, predict_entries, rmse
from repro.metrics.rmse import RMSE_BLOCK

# the package re-exports the function under the submodule's name
rmse_module = importlib.import_module("repro.metrics.rmse")


@pytest.fixture
def exact_model():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    theta = rng.normal(size=(4, 3))
    full = x @ theta.T
    rows, cols = np.nonzero(np.ones((6, 4)))
    ratings = RatingMatrix.from_coo(rows, cols, full[rows, cols], m=6, n=4)
    return x, theta, ratings


class TestRmse:
    def test_perfect_model_zero_rmse(self, exact_model):
        x, theta, ratings = exact_model
        assert rmse(x, theta, ratings) == pytest.approx(0.0, abs=1e-6)

    def test_known_error(self, exact_model):
        x, theta, ratings = exact_model
        shifted = RatingMatrix.from_coo(
            np.repeat(np.arange(6), 4),
            np.tile(np.arange(4), 6),
            (x @ theta.T).ravel() + 2.0,
            m=6,
            n=4,
        )
        assert rmse(x, theta, shifted) == pytest.approx(2.0, rel=1e-5)

    def test_empty_is_nan(self):
        empty = RatingMatrix.from_coo([], [], [], m=3, n=3)
        assert math.isnan(rmse(np.ones((3, 2)), np.ones((3, 2)), empty))

    @pytest.mark.parametrize("block", [RMSE_BLOCK, 1_000])
    def test_blocked_rmse_is_the_unblocked_formula(self, monkeypatch, block):
        """Bit-identical to one full-size gather, on both splits."""
        monkeypatch.setattr(rmse_module, "RMSE_BLOCK", block)
        split, _ = load_surrogate("netflix", scale=0.1)
        rng = np.random.default_rng(4)
        for ratings in (split.train, split.test):
            x = rng.normal(0, 0.5, (ratings.m, 16)).astype(np.float32)
            theta = rng.normal(0, 0.5, (ratings.n, 16)).astype(np.float32)
            rows = np.repeat(np.arange(ratings.m), ratings.row_counts())
            err = predict_entries(x, theta, rows, ratings.col_idx) - ratings.row_val
            assert rmse(x, theta, ratings) == float(np.sqrt(np.mean(err * err)))

    def test_out_of_range_entries_raise(self, exact_model):
        x, theta, ratings = exact_model
        with pytest.raises(IndexError):
            rmse(x[:5], theta, ratings)
        with pytest.raises(IndexError):
            rmse(x, theta[:3], ratings)

    def test_predict_entries(self, exact_model):
        x, theta, _ = exact_model
        p = predict_entries(x, theta, np.array([1, 2]), np.array([0, 3]))
        assert p[0] == pytest.approx(x[1] @ theta[0])
        assert p[1] == pytest.approx(x[2] @ theta[3])

    def test_predict_validation(self, exact_model):
        x, theta, _ = exact_model
        with pytest.raises(ValueError):
            predict_entries(x, theta, np.array([1, 2]), np.array([0]))
        with pytest.raises(IndexError):
            predict_entries(x, theta, np.array([99]), np.array([0]))


class TestTrainingCurve:
    def make(self):
        c = TrainingCurve("demo")
        c.record(1, 1.0, 1.5)
        c.record(2, 2.0, 1.0)
        c.record(3, 3.0, 0.8)
        return c

    def test_properties(self):
        c = self.make()
        assert c.final_rmse == 0.8
        assert c.best_rmse == 0.8
        assert c.total_seconds == 3.0
        assert c.rmse_array().tolist() == [1.5, 1.0, 0.8]

    def test_time_to_rmse_interpolates(self):
        c = self.make()
        # Crossing 0.9 happens between t=2 (1.0) and t=3 (0.8).
        assert c.time_to_rmse(0.9) == pytest.approx(2.5)

    def test_time_to_rmse_exact_point(self):
        c = self.make()
        assert c.time_to_rmse(1.5) == 1.0

    def test_time_to_rmse_unreachable(self):
        c = self.make()
        assert c.time_to_rmse(0.1) is None

    def test_epochs_to_rmse(self):
        c = self.make()
        assert c.epochs_to_rmse(1.0) == 2
        assert c.epochs_to_rmse(0.01) is None

    def test_time_must_not_go_backward(self):
        c = self.make()
        with pytest.raises(ValueError):
            c.record(4, 2.5, 0.7)

    def test_empty_curve_raises(self):
        c = TrainingCurve("empty")
        with pytest.raises(ValueError):
            _ = c.final_rmse
        with pytest.raises(ValueError):
            _ = c.best_rmse
        assert c.total_seconds == 0.0
