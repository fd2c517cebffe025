"""Synthetic rating-matrix generators.

The paper's datasets (Netflix, YahooMusic, Hugewiki) are not shipped with
this reproduction, so we generate surrogates with the statistical features
that matter to the algorithms under study:

* **ground-truth low-rank structure** — ratings are ``x_uᵀ θ_v`` of a
  planted rank-``true_rank`` model plus Gaussian noise, so ALS/SGD have a
  real signal to recover and test RMSE converges the way Figure 6 shows;
* **Zipf-distributed popularity** — item (and optionally user) degrees
  follow a power law, reproducing the skewed n_θv that drives cache reuse
  of hot θ columns and the load imbalance that blocked SGD must schedule
  around;
* **bounded rating scale** — 1..5 (Netflix-like) or 1..100
  (YahooMusic-like), or positive counts (Hugewiki-like term frequencies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import RatingMatrix

__all__ = ["SyntheticConfig", "generate_ratings", "planted_factors"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape and distribution of a synthetic rating matrix."""

    m: int
    n: int
    nnz: int
    true_rank: int = 16
    noise: float = 0.1
    rating_min: float = 1.0
    rating_max: float = 5.0
    zipf_exponent: float = 1.1  # item-popularity skew; 0 = uniform
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.m, self.n) <= 0:
            raise ValueError("m and n must be positive")
        if self.nnz <= 0:
            raise ValueError("nnz must be positive")
        if self.nnz > self.m * self.n:
            raise ValueError("nnz exceeds matrix capacity")
        if self.true_rank <= 0:
            raise ValueError("true_rank must be positive")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if self.rating_max <= self.rating_min:
            raise ValueError("rating_max must exceed rating_min")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be non-negative")


def planted_factors(
    cfg: SyntheticConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth factors scaled so xᵀθ spans the rating range."""
    scale = 1.0 / np.sqrt(cfg.true_rank)
    x = rng.normal(0.0, scale, size=(cfg.m, cfg.true_rank)).astype(np.float64)
    theta = rng.normal(0.0, scale, size=(cfg.n, cfg.true_rank)).astype(np.float64)
    return x, theta


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    if exponent == 0.0:
        return np.full(n, 1.0 / n)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-exponent
    return w / w.sum()


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` by sort + adjacent-difference mask."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _sorted_isin(a: np.ndarray, sorted_b: np.ndarray) -> np.ndarray:
    """``np.isin(a, sorted_b)`` for a non-empty ascending ``sorted_b``."""
    pos = np.searchsorted(sorted_b, a)
    np.minimum(pos, sorted_b.size - 1, out=pos)
    return sorted_b[pos] == a


def generate_ratings(
    cfg: SyntheticConfig, rng: np.random.Generator | None = None
) -> RatingMatrix:
    """Draw a synthetic :class:`RatingMatrix` per ``cfg``.

    Sampling: users are drawn near-uniformly (mild skew), items from a
    Zipf law; duplicate (u, v) pairs are removed by resampling overflow,
    so the result has exactly ``cfg.nnz`` distinct entries unless the
    matrix is nearly dense, in which case it may have slightly fewer.

    All randomness flows through ``rng`` so callers (fuzz campaigns,
    multi-dataset sweeps) can derive every generation from one root
    generator; when omitted, a fresh generator is seeded from
    ``cfg.seed`` — no module-level random state is ever touched.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    x, theta = planted_factors(cfg, rng)

    p_items = _zipf_probabilities(cfg.n, cfg.zipf_exponent)
    p_users = _zipf_probabilities(cfg.m, cfg.zipf_exponent / 3.0)

    # Rejection-free dedup: sample in rounds until nnz distinct pairs.
    # Sort-based throughout (``seen`` is kept sorted), yielding exactly
    # the keys ``np.unique(key[~np.isin(key, seen)])`` would.
    seen: np.ndarray | None = None
    rows_list, cols_list = [], []
    need = cfg.nnz
    for _ in range(30):
        k = int(need * 1.3) + 16
        u = rng.choice(cfg.m, size=k, p=p_users)
        v = rng.choice(cfg.n, size=k, p=p_items)
        key = _sorted_unique(u.astype(np.int64) * cfg.n + v)
        if seen is not None:
            key = key[~_sorted_isin(key, seen)]
        take = key[: min(need, key.size)]
        rows_list.append(take // cfg.n)
        cols_list.append(take % cfg.n)
        seen = take if seen is None else np.sort(np.concatenate([seen, take]))
        need -= take.size
        if need <= 0:
            break
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)

    # Ratings: planted low-rank signal mapped onto the rating scale.
    raw = np.einsum("ij,ij->i", x[rows], theta[cols])
    raw = raw + rng.normal(0.0, cfg.noise * raw.std() + 1e-12, size=raw.shape)
    lo, hi = np.quantile(raw, [0.01, 0.99])
    span = hi - lo if hi > lo else 1.0
    vals = cfg.rating_min + (raw - lo) / span * (cfg.rating_max - cfg.rating_min)
    vals = np.clip(vals, cfg.rating_min, cfg.rating_max)

    return RatingMatrix.from_coo(rows, cols, vals.astype(np.float32), m=cfg.m, n=cfg.n)
