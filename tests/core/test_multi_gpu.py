"""Tests for multi-GPU ALS."""

import numpy as np
import pytest

from repro.core import ALSConfig, ALSModel, CGConfig, MultiGpuALS
from repro.data import load_surrogate
from repro.gpusim import PASCAL_P100
from repro.runtime.executor import partition_rows


@pytest.fixture(scope="module")
def hugewiki_small():
    split, spec = load_surrogate("hugewiki", scale=0.05, seed=2)
    return split, spec


def cfg(**kw):
    base = dict(f=16, lam=0.05, cg=CGConfig(max_iters=6), seed=0)
    base.update(kw)
    return ALSConfig(**base)


class TestPartition:
    def test_covers_all_rows(self):
        ptr = np.array([0, 5, 5, 9, 20, 21])
        parts = partition_rows(ptr, 3)
        assert parts[0][0] == 0
        assert parts[-1][1] == 5
        for (a, b), (c, d) in zip(parts, parts[1:]):
            assert b == c

    def test_balances_nnz(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=1000)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        parts = partition_rows(ptr, 4)
        sizes = [ptr[b] - ptr[a] for a, b in parts]
        assert max(sizes) < 1.3 * ptr[-1] / 4

    def test_single_part(self):
        ptr = np.array([0, 3, 6])
        assert partition_rows(ptr, 1) == [(0, 2)]

    def test_more_parts_than_rows(self):
        ptr = np.array([0, 3])
        parts = partition_rows(ptr, 4)
        assert parts[0] == (0, 1)
        assert all(a == b for a, b in parts[1:])  # empty tails

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_rows(np.array([0, 1]), 0)


class TestMultiGpu:
    def test_numerics_identical_to_single_gpu(self, hugewiki_small):
        """Row partitioning must not change the math at all."""
        split, _ = hugewiki_small
        single = ALSModel(cfg(), device=PASCAL_P100)
        single.fit(split.train, split.test, epochs=3)
        multi = MultiGpuALS(cfg(), num_gpus=4)
        multi.fit(split.train, split.test, epochs=3)
        assert np.array_equal(multi.x_, single.x_)
        assert np.array_equal(multi.theta_, single.theta_)

    def test_speedup_on_paper_scale(self, hugewiki_small):
        """Paper Table IV: Hugewiki on 4 GPUs is ~3-4x one GPU."""
        split, spec = hugewiki_small
        t1 = (
            MultiGpuALS(cfg(f=100), num_gpus=1, sim_shape=spec.paper)
            .fit(split.train, epochs=1)
            .total_seconds
        )
        t4 = (
            MultiGpuALS(cfg(f=100), num_gpus=4, sim_shape=spec.paper)
            .fit(split.train, epochs=1)
            .total_seconds
        )
        assert 2.5 < t1 / t4 <= 4.05

    def test_engines_synchronized(self, hugewiki_small):
        split, _ = hugewiki_small
        model = MultiGpuALS(cfg(), num_gpus=3)
        model.fit(split.train, epochs=2)
        clocks = [e.clock for e in model.engines]
        assert max(clocks) - min(clocks) < 1e-9

    def test_comm_recorded(self, hugewiki_small):
        split, _ = hugewiki_small
        model = MultiGpuALS(cfg(), num_gpus=2)
        model.fit(split.train, epochs=1)
        tags = model.engines[0].seconds_by_tag()
        assert tags.get("comm", 0) > 0

    def test_single_gpu_has_no_comm(self, hugewiki_small):
        split, _ = hugewiki_small
        model = MultiGpuALS(cfg(), num_gpus=1)
        model.fit(split.train, epochs=1)
        assert model.engines[0].seconds_by_tag().get("comm", 0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiGpuALS(cfg(), num_gpus=0)
