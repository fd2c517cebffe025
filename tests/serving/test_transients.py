"""Set-up transients stay small next to what the set-up produces.

``peak_rss_mb`` on a serving host is set by set-up temporaries, not by
model state, so each builder here is held to a traced peak a small
multiple of its output.  NumPy reports its data buffers to
``tracemalloc``; anonymous shared mappings are not traced, which is
why the engine's bound counts the artifact it loads once.
"""

import tracemalloc

import pytest

from repro.core.als import ALSModel
from repro.core.config import ALSConfig
from repro.persistence import save_model
from repro.serving.engine import ServingEngine
from repro.serving.index import IndexConfig, build_index, clustered_catalog


def traced_peak(fn):
    """``(peak traced bytes above the start, fn())``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, out


@pytest.fixture(scope="module")
def catalog():
    return clustered_catalog(64, 65_536, 32, clusters=64, seed=2)


def test_clustered_catalog_peak_is_near_its_output():
    # Float64 draws of the whole catalogue peaked near 4x the output.
    peak, (x, theta) = traced_peak(
        lambda: clustered_catalog(1024, 131_072, 32, clusters=64, seed=2)
    )
    assert peak <= 1.5 * (x.nbytes + theta.nbytes)


def test_build_index_peak_is_a_small_multiple_of_theta(catalog):
    # Whole-catalogue float64 copies in the final pass peaked near 5.4x.
    _, theta = catalog
    peak, index = traced_peak(lambda: build_index(theta, IndexConfig(seed=0)))
    assert index.n_items == theta.shape[0]
    assert peak <= 2.5 * theta.nbytes


def test_engine_construction_peak_is_near_theta(catalog, tmp_path):
    # The float64 popularity norm of the whole catalogue peaked near 5x.
    x, theta = catalog
    model = ALSModel(ALSConfig(f=32, seed=0))
    model.x_, model.theta_ = x, theta
    path = tmp_path / "model.npz"
    save_model(path, model)
    peak, engine = traced_peak(lambda: ServingEngine(path))
    assert engine.fallback.num_items == theta.shape[0]
    assert peak <= 1.5 * theta.nbytes
