"""Golden digests of what a serving set-up builds.

The catalogue generator, the IVF build and the engine's popularity
baseline must stay byte-identical across refactors of how they stage
their temporaries: ``recall_at_10``, the golden drill logs and the
fleet's bit-identity to the in-process engine all read these arrays.
Each digest is SHA-256 over the named arrays' bytes, in order.  The
builders stage their work in row blocks; ``row_block`` reruns the
smaller pins with blocks that do not divide the inputs, so the bytes
are shown not to depend on where the blocks fall.
"""

import hashlib

import numpy as np
import pytest

import repro.serving.engine as engine_module
import repro.serving.index as index_module
from repro.core.als import ALSModel
from repro.core.config import ALSConfig
from repro.persistence import save_model
from repro.serving.engine import ServingEngine
from repro.serving.index import IndexConfig, build_index, clustered_catalog


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def index_digest(index) -> str:
    return digest(
        index.perm,
        index.cell_ptr,
        index.centroids,
        index.radii,
        index.theta_perm,
        np.int64(index.iters_run),
    )


@pytest.fixture(params=["default", 3000, 100])
def row_block(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(index_module, "_ROW_BLOCK", request.param)
        monkeypatch.setattr(engine_module, "_NORM_ROWS", request.param)
    return request.param


@pytest.mark.parametrize(
    "shape, clusters, seed, want",
    [
        (
            (4096, 262_144, 32),
            64,
            2,
            "2a4134292865e4505c1850086b2c415bc8bc03cf614d03844ea66c9be00afa98",
        ),
        (
            (37, 501, 7),
            5,
            3,
            "6590d0ea8e75114f8cb53cd14f1b2d06450354bd8c814ab09a1d4ecfb5957abb",
        ),
    ],
)
def test_clustered_catalog_digest(shape, clusters, seed, want):
    x, theta = clustered_catalog(*shape, clusters=clusters, seed=seed)
    assert x.dtype == theta.dtype == np.float32
    assert digest(x, theta) == want


def test_clustered_catalog_digest_by_block(row_block):
    x, theta = clustered_catalog(96, 7001, 8, clusters=6, seed=4)
    assert digest(x, theta) == (
        "09e0c2c5d60e58d4bd8586260aa81cfed4bf2ecba8fbe411e8aa5101d3aae98b"
    )


def test_build_index_digest(row_block):
    _, theta = clustered_catalog(64, 32_768, 32, clusters=64, seed=2)
    index = build_index(theta, IndexConfig(seed=4))
    assert (index.ncells, index.iters_run) == (181, 8)
    assert index_digest(index) == (
        "33720427d8cf507ab6da5d88d1a2da7a7dc04652efbbab4aa56fec330bba21eb"
    )


def test_build_index_digest_with_empty_cells(row_block):
    # 300 items on 6 distinct points: 18 of the 24 cells end empty.
    rng = np.random.default_rng(5)
    points = rng.standard_normal((6, 8)).astype(np.float32)
    theta = points[rng.integers(0, 6, 300)]
    index = build_index(theta, IndexConfig(ncells=24, seed=1))
    assert int(index.empty_mask.sum()) == 18
    assert index_digest(index) == (
        "75e013552125f5b16e66c001d2e26f42bf022785b4ffba98575eee928b7a8a12"
    )


def test_engine_popularity_digest(tmp_path, row_block):
    x, theta = clustered_catalog(16, 70_000, 32, clusters=8, seed=6)
    model = ALSModel(ALSConfig(f=32, seed=0))
    model.x_, model.theta_ = x, theta
    path = tmp_path / "model.npz"
    save_model(path, model)
    engine = ServingEngine(path)
    assert digest(engine.fallback._scores) == (
        "298e4bb83aafc601003dcc8c93d4e4bed0d4b180a3c5a35c2e1708c4ea7e6d6f"
    )
