"""Golden digests of the generated surrogates.

Every dataset the package generates must stay byte-identical across
refactors of the generator: benchmarks, golden drill logs and RMSE
targets are all pinned to these exact matrices.  Each digest is SHA-256
over ``row_ptr``, ``col_idx`` and ``row_val`` bytes, in that order.
"""

import hashlib

import pytest

from repro.data import SyntheticConfig, generate_ratings
from repro.data.datasets import load_surrogate


def csr_digest(r) -> str:
    h = hashlib.sha256()
    for a in (r.row_ptr, r.col_idx, r.row_val):
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "scale, train_digest, test_digest",
    [
        (
            1.0,
            "4808e7c323ebd3f381173140e4a1210752737d2152dc75e9b61ccf7713b92715",
            "1a5b9e1e440d087deeb8c0ae2cc92b1dfc2266d1165787d33943341295831dfe",
        ),
        (
            0.1,
            "f1ebe6a0a87a50db9091b2a61951b65ed4f38a157f95ef2aaa6a64d3635e27c5",
            "6a1287a04d84200c03986e97109cda912a1fcf993d69f7063c762e295a1075e4",
        ),
    ],
)
def test_netflix_surrogate_digests(scale, train_digest, test_digest):
    split, _ = load_surrogate("netflix", scale=scale)
    assert csr_digest(split.train) == train_digest
    assert csr_digest(split.test) == test_digest


def test_multi_round_digest():
    # Zipf collisions make this draw resample for 18 rounds.
    cfg = SyntheticConfig(
        m=500, n=200, nnz=20_000, true_rank=8, zipf_exponent=1.2, seed=7
    )
    assert csr_digest(generate_ratings(cfg)) == (
        "d23183ebb91e850bcfe98bc4b29b054f8642dddecb3d1cc7ed1899b69c7ff3dc"
    )


def test_nearly_dense_digest():
    # Runs out of all 30 rounds short of nnz (537 of 550 cells).
    r = generate_ratings(SyntheticConfig(m=30, n=20, nnz=550, seed=1))
    assert r.nnz == 537
    assert csr_digest(r) == (
        "bb3e370dc1b36ff55bc44d4ce85aaeddcae0c76a180489f35d679ac880413234"
    )
