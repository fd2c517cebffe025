"""IVF retrieval index over item factors: sublinear top-k serving.

The :class:`~repro.serving.batcher.MicroBatcher` scores every item for
every request — one ``(batch, f) @ (f, n_items)`` GEMM, O(n_items·f)
per user.  That is exact but linear in the catalogue, which caps the
ROADMAP's "heavy traffic" target at toy item counts.  This module is
the classic MF-serving answer (cf. cuMF_ALS and the IVF family): a
coarse k-means **inverted file** over the item factors.

* ``ncells ≈ sqrt(n_items)`` centroids are fit with a few seeded Lloyd
  iterations at model-install time (:class:`~repro.serving.reload
  .ModelStore` builds the index after a successful swap and skips the
  rebuild on the digest-noop path).
* Items are stored in a **cell-contiguous permutation**
  (``perm``/``cell_ptr``/``theta_perm``), so a probed cell is a dense
  row slice of ``theta_perm`` and scores as one small GEMV into arena
  scratch — probing never gathers.
* At query time the ``nprobe`` nearest cells are selected by a
  **ball-bound** ranking: cell ``j`` is ranked by
  ``dot(u, c_j) + |u|·r_j`` where ``r_j`` is the radius of the cell
  (max member distance to the centroid).  Since
  ``dot(u, t) ≤ dot(u, c_j) + |u|·|t − c_j| ≤ dot(u, c_j) + |u|·r_j``
  for every item ``t`` in cell ``j``, the ranking is an upper bound on
  the best score the cell can contain.  Probe sets are **nested** in
  ``nprobe``, so recall versus brute force is monotone in the knob, and
  ``nprobe >= ncells`` routes through the literal brute-force GEMM —
  bit-identical to serving without an index.

Probed items are scored **exactly** (same dot products, full
precision); the approximation is only *which* items get scored.  That
is the paper's approximate-computing contract transplanted to serving:
spend less work, bound the damage, keep a knob that recovers exactness.

See ``docs/serving.md`` ("Retrieval index") for the derivations and
the ladder placement of the brute-force fallback rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_LLOYD_ITERS",
    "IndexConfig",
    "ItemIndex",
    "build_index",
    "clustered_catalog",
    "default_ncells",
    "default_nprobe",
    "recall_floor",
]

#: Lloyd iterations a build runs when the budget allows (assignments
#: usually stabilize on these small-f catalogues well before this).
DEFAULT_LLOYD_ITERS = 8


def default_ncells(n_items: int) -> int:
    """The ISSUE's coarse-quantizer size: ``ncells ≈ sqrt(n_items)``."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    return max(1, min(n_items, round(math.sqrt(n_items))))


def default_nprobe(ncells: int) -> int:
    """Default probe count: ``ceil(ncells / 32)``.

    The probed path pays a fixed per-request overhead (cell ranking,
    run merging, candidate top-k), so the speedup only clears the
    bench's ≥ 5x floor when the scored fraction stays a few percent of
    the catalogue; 1/32 of the cells measures ~8x at 262K items while
    the ball-bound ranking holds measured recall@10 at 1.0 on
    clustered catalogues (the bench gates ≥ 0.95).  Callers that want
    more recall headroom raise the knob per request or per engine —
    exactness returns at ``nprobe = ncells``.
    """
    if ncells < 1:
        raise ValueError("ncells must be >= 1")
    return max(1, -(-ncells // 32))


def recall_floor(nprobe: int, ncells: int) -> float:
    """Distribution-free recall@k floor as a function of probe fraction.

    Piecewise in ``r = nprobe / ncells``, calibrated over the VF110
    generator grid (2300 seeded clustered catalogues, worst observed
    *mean-over-users* recall per bucket, then a ~25–40 % safety margin)
    the same way VF006's backend tolerances were derived:

    * ``r >= 1``   → 1.0  (the brute-force route: provably exact);
    * ``r >= 1/2`` → 0.40 (worst observed 0.519);
    * ``r >= 1/4`` → 0.12 (worst observed 0.200);
    * below 1/4 the floor is vacuous (0.0): single-cluster catalogues
      (an isotropic blob, the adversarial draw for any IVF) produced
      zero-recall grid points there, so no honest distribution-free
      bound exists at small probe fractions.

    The floor is deliberately weak because it must hold on *everything*
    the fuzzer draws.  Controlled consumers gate much stricter: the
    bench requires recall@10 ≥ 0.95 at default nprobe on its clustered
    262K catalogue, and the serving drill gates its trained-ALS
    catalogue at ``nprobe = ceil(ncells/2)`` where measured recall sits
    well above this 0.40 floor.
    """
    if ncells < 1:
        raise ValueError("ncells must be >= 1")
    if nprobe < 1:
        raise ValueError("nprobe must be >= 1")
    if nprobe >= ncells:
        return 1.0
    ratio = nprobe / ncells
    if ratio >= 0.5:
        return 0.40
    if ratio >= 0.25:
        return 0.12
    return 0.0


@dataclass(frozen=True)
class IndexConfig:
    """Build-time knobs of the IVF index (plain data, JSON-ready).

    Parameters
    ----------
    ncells:
        Coarse-quantizer size; ``None`` derives ``sqrt(n_items)``
        (:func:`default_ncells`), always clamped to ``[1, n_items]``.
    nprobe:
        Default probe count served when neither the request nor the
        engine overrides it; ``None`` derives :func:`default_nprobe`.
    iters:
        Lloyd iteration cap for the k-means fit.
    seed:
        Seed of the centroid initialisation (same factors + same
        config → bit-identical index).
    budget:
        Build budget in **item·iteration work units** (one unit = one
        item visited by one Lloyd pass); ``ModelStore`` spends it at
        model install.  ``None`` is unmetered; a budget below one full
        pass (``n_items``) skips the build entirely — the store then
        serves brute force, never a half-fit index.
    """

    ncells: int | None = None
    nprobe: int | None = None
    iters: int = DEFAULT_LLOYD_ITERS
    seed: int = 0
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.ncells is not None and self.ncells < 1:
            raise ValueError("ncells must be >= 1 (or None to derive)")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError("nprobe must be >= 1 (or None to derive)")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative (or None)")

    def as_dict(self) -> dict:
        return {
            "ncells": self.ncells,
            "nprobe": self.nprobe,
            "iters": self.iters,
            "seed": self.seed,
            "budget": self.budget,
        }


class ItemIndex:
    """A built IVF index: centroids, radii and the cell-contiguous layout.

    Attributes
    ----------
    centroids:
        ``(ncells, f)`` float32 cell centers.
    radii:
        ``(ncells,)`` float32 — max member distance to the centroid
        (0 for empty cells); the ball-bound term of cell ranking.
    perm:
        ``(n_items,)`` int64 — item ids in cell-contiguous order
        (stable within a cell: ascending item id).
    cell_ptr:
        ``(ncells + 1,)`` int64 — cell ``j`` owns the item slice
        ``perm[cell_ptr[j]:cell_ptr[j + 1]]``.
    theta_perm:
        ``(n_items, f)`` float32 — ``theta[perm]``, so a probed cell
        scores as one dense GEMV slice.
    """

    def __init__(
        self,
        *,
        centroids: np.ndarray,
        radii: np.ndarray,
        perm: np.ndarray,
        cell_ptr: np.ndarray,
        theta_perm: np.ndarray,
        nprobe: int,
        seed: int,
        iters_run: int,
    ) -> None:
        self.centroids = centroids
        self.radii = radii
        self.perm = perm
        self.cell_ptr = cell_ptr
        self.theta_perm = theta_perm
        self.nprobe = nprobe
        self.seed = seed
        self.iters_run = iters_run
        #: Empty cells carry no candidates; masking them out of the
        #: ranking stops them wasting probe slots.
        self.empty_mask = cell_ptr[1:] == cell_ptr[:-1]
        #: ``_largest_cells[p]`` is the item count of the ``p`` largest
        #: cells — the cell geometry never changes after the build.
        sizes = np.sort(np.diff(cell_ptr))[::-1]
        self._largest_cells = np.concatenate(([0], np.cumsum(sizes)))

    @property
    def ncells(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_items(self) -> int:
        return self.perm.shape[0]

    @property
    def f(self) -> int:
        return self.centroids.shape[1]

    def probe_capacity(self, nprobe: int) -> int:
        """Most candidates any ``nprobe``-cell probe can select: the sum
        of the ``nprobe`` largest cells (the batcher sizes its probe
        scratch from it, so varied probes never regrow the arena)."""
        return int(self._largest_cells[min(max(1, nprobe), self.ncells)])

    def select_cells(
        self, u: np.ndarray, nprobe: int, *, bounds: np.ndarray | None = None
    ) -> np.ndarray:
        """Top-``nprobe`` cells by score upper bound, ascending cell id.

        ``bounds`` may be an ``(ncells,)`` float32 scratch buffer (the
        batcher passes arena scratch so steady-state probing allocates
        nothing large); contents are overwritten.
        """
        ncells = self.ncells
        p = min(max(1, nprobe), ncells)
        if bounds is None:
            bounds = np.empty(ncells, dtype=np.float32)
        np.matmul(self.centroids, u, out=bounds)
        unorm = float(np.sqrt(u @ u))
        bounds += np.float32(unorm) * self.radii
        bounds[self.empty_mask] = -np.inf
        if p >= ncells:
            return np.arange(ncells, dtype=np.int64)
        cells = np.argpartition(bounds, ncells - p)[ncells - p:]
        cells.sort()
        return cells.astype(np.int64, copy=False)

    def update_items(
        self, item_ids: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Install new factor rows for ``item_ids`` in place; returns the
        affected cell ids.

        This is the fold-in path's index surgery: the cell geometry
        (``perm``/``cell_ptr``/assignments) is kept, the moved items'
        ``theta_perm`` rows are overwritten, and the affected cells'
        cached ball bounds — now invalid — are recomputed **exactly**
        from their members, so ``select_cells``'s upper bound stays
        sound (``dot(u, t) ≤ dot(u, c_j) + |u|·r_j`` holds for any
        member set once ``r_j`` is the true max member distance).
        Untouched cells keep their arrays bit-identical.  Assignments
        are deliberately not revisited: a drifted item stays in its old
        cell with a (possibly larger) exact radius, trading a little
        probe efficiency for O(changed items) update cost; the next
        full rebuild re-buckets it.
        """
        ids = np.asarray(item_ids, dtype=np.int64)
        rows32 = np.ascontiguousarray(rows, dtype=np.float32)
        if ids.ndim != 1 or rows32.shape != (ids.shape[0], self.f):
            raise ValueError(
                f"item_ids {ids.shape} and rows {rows32.shape} must be "
                f"(k,) and (k, {self.f})"
            )
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= self.n_items:
            raise ValueError("item id out of range for this index")
        inv = np.empty(self.n_items, dtype=np.int64)
        inv[self.perm] = np.arange(self.n_items, dtype=np.int64)
        pos = inv[ids]
        self.theta_perm[pos] = rows32
        cells = np.unique(np.searchsorted(self.cell_ptr, pos, side="right") - 1)
        for c in cells:
            lo, hi = int(self.cell_ptr[c]), int(self.cell_ptr[c + 1])
            if hi <= lo:
                self.radii[c] = np.float32(0.0)
                continue
            diff = self.theta_perm[lo:hi] - self.centroids[c]
            self.radii[c] = np.float32(
                math.sqrt(float(np.einsum("if,if->i", diff, diff).max()))
            )
        return cells

    def stats(self) -> dict:
        """Operational snapshot (JSON-ready) for reports and the CLI."""
        counts = np.diff(self.cell_ptr)
        return {
            "ncells": self.ncells,
            "n_items": self.n_items,
            "f": self.f,
            "nprobe": self.nprobe,
            "iters_run": self.iters_run,
            "empty_cells": int(self.empty_mask.sum()),
            "largest_cell": int(counts.max()) if counts.size else 0,
        }


#: Row-block size of every catalogue-wide pass: the assignment GEMM,
#: the final centroid/radius pass and the catalogue draw.  One
#: monolithic ``(n_items, ncells)`` score matrix runs hundreds of MB on
#: bench-size catalogues and measures >10x slower than streaming row
#: blocks through a scratch buffer that stays cache-warm; a block keeps
#: each pass's temporaries a few MB, far below the arrays it produces.
_ROW_BLOCK = 8192


def _assign(theta: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment via ``argmax(t·c − |c|²/2)``.

    Runs in float32 (centroids are cast down) so the dominant
    ``(chunk, f) @ (f, ncells)`` GEMMs stay in the fast BLAS path;
    only the centroid *means* accumulate in float64.
    """
    c32 = np.ascontiguousarray(centroids, dtype=np.float32)
    half = 0.5 * np.einsum("cf,cf->c", c32, c32)
    n = theta.shape[0]
    out = np.empty(n, dtype=np.intp)
    scratch = np.empty((min(n, _ROW_BLOCK), c32.shape[0]), dtype=np.float32)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        scores = scratch[: hi - lo]
        np.matmul(theta[lo:hi], c32.T, out=scores)
        scores -= half
        np.argmax(scores, axis=1, out=out[lo:hi])
    return out


def _group(assign: np.ndarray, ncells: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable cell-contiguous permutation and its ``cell_ptr`` offsets."""
    perm = np.argsort(assign, kind="stable").astype(np.int64)
    cell_ptr = np.searchsorted(
        assign[perm], np.arange(ncells + 1), side="left"
    ).astype(np.int64)
    return perm, cell_ptr


def _cell_blocks(cell_ptr: np.ndarray, rows: int) -> list[tuple[int, int]]:
    """Consecutive cell ranges ``[c0, c1)`` of at most ``rows`` items
    each; a cell larger than ``rows`` is a range of its own."""
    ncells = cell_ptr.shape[0] - 1
    blocks = []
    c0 = 0
    while c0 < ncells:
        c1 = int(np.searchsorted(cell_ptr, cell_ptr[c0] + rows, side="right")) - 1
        c1 = max(c1, c0 + 1)
        blocks.append((c0, c1))
        c0 = c1
    return blocks


def _finalize_cells(
    theta_perm: np.ndarray, cell_ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 centroids (member means) and radii (max member distance
    to the mean) of every cell, 0 for empty cells.

    Runs over blocks of whole cells, so its float64 temporaries stay a
    block in size; each cell's arithmetic is the same as over the whole
    catalogue at once.
    """
    ncells = cell_ptr.shape[0] - 1
    counts = np.diff(cell_ptr)
    centers64 = np.zeros((ncells, theta_perm.shape[1]), dtype=np.float64)
    radii = np.zeros(ncells, dtype=np.float32)
    for c0, c1 in _cell_blocks(cell_ptr, _ROW_BLOCK):
        lo, hi = int(cell_ptr[c0]), int(cell_ptr[c1])
        if hi == lo:
            continue  # only empty cells
        cnt = counts[c0:c1]
        nonempty = np.flatnonzero(cnt > 0)
        starts = cell_ptr[c0:c1][nonempty] - lo
        block = theta_perm[lo:hi].astype(np.float64)
        sums = np.add.reduceat(block, starts, axis=0)
        centers64[c0 + nonempty] = sums / cnt[nonempty, None]
        block -= np.repeat(centers64[c0:c1], cnt, axis=0)
        dist = np.sqrt(np.einsum("nf,nf->n", block, block))
        radii[c0 + nonempty] = np.maximum.reduceat(dist, starts).astype(
            np.float32
        )
    return centers64.astype(np.float32), radii


def _locality_order(centroids: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbour chain over the centroids.

    Cells a single user probes are similar to each other (they all
    score near that user's taste direction), so relabelling cells along
    a nearest-neighbour chain packs them into adjacent ids — and
    adjacent ids own adjacent ``theta_perm`` slices, which the batcher
    merges into a handful of dense GEMV runs instead of ``nprobe``
    scattered ones.  Deterministic: starts at cell 0, ties broken by
    lowest id (``argmin``).
    """
    c = centroids.shape[0]
    if c <= 2:
        return np.arange(c, dtype=np.int64)
    sq = np.einsum("cf,cf->c", centroids, centroids)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (centroids @ centroids.T)
    np.fill_diagonal(d2, np.inf)
    order = np.empty(c, dtype=np.int64)
    used = np.zeros(c, dtype=bool)
    cur = 0
    order[0] = cur
    used[cur] = True
    for i in range(1, c):
        cur = int(np.argmin(np.where(used, np.inf, d2[cur])))
        order[i] = cur
        used[cur] = True
    return order


def build_index(
    theta: np.ndarray, config: IndexConfig | None = None
) -> ItemIndex | None:
    """Fit the IVF index over item factors ``theta``; ``None`` if skipped.

    Deterministic: the same factors and config rebuild bit-identically.
    Returns ``None`` when ``config.budget`` cannot afford a single full
    Lloyd pass over the catalogue — the caller (ModelStore) records the
    skip and keeps serving brute force.
    """
    cfg = config if config is not None else IndexConfig()
    theta = np.ascontiguousarray(theta, dtype=np.float32)
    if theta.ndim != 2:
        raise ValueError("theta must be a 2-D (n_items, f) array")
    n_items = theta.shape[0]
    if n_items < 1:
        raise ValueError("theta must contain at least one item")

    iters = cfg.iters
    if cfg.budget is not None:
        affordable = cfg.budget // n_items
        if affordable < 1:
            return None
        iters = min(iters, int(affordable))

    ncells = cfg.ncells if cfg.ncells is not None else default_ncells(n_items)
    ncells = min(ncells, n_items)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 131]))
    # Lloyd fits on a seeded subsample once catalogues get big: the
    # centroids need O(samples-per-cell) evidence each, not the whole
    # catalogue, and the final full assignment below places every item
    # exactly.  Same seed + same factors → same sample → same index.
    fit_n = min(n_items, max(4096, 64 * ncells))
    if fit_n < n_items:
        sample = rng.choice(n_items, size=fit_n, replace=False)
        sample.sort()
        fit_theta = np.ascontiguousarray(theta[sample])
    else:
        fit_theta = theta
    seeds = rng.choice(fit_n, size=ncells, replace=False)
    seeds.sort()  # deterministic layout independent of choice() order
    centroids = fit_theta[seeds].astype(np.float64)

    assign = _assign(fit_theta, centroids)
    iters_run = 0
    for _ in range(iters):
        iters_run += 1
        counts = np.bincount(assign, minlength=ncells)
        perm, cell_ptr = _group(assign, ncells)
        nonempty = np.flatnonzero(counts > 0)
        # Segment sums over the cell-contiguous order: one reduceat
        # per pass instead of fit_n scattered adds.
        sums = np.add.reduceat(
            fit_theta[perm].astype(np.float64), cell_ptr[nonempty], axis=0
        )
        centroids[nonempty] = sums / counts[nonempty, None]
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # Deterministic reseed: park empty cells on the items that
            # fit their own (pre-update) centroid worst — no extra GEMM.
            c32 = np.ascontiguousarray(centroids, dtype=np.float32)
            fit = np.einsum(
                "nf,nf->n", fit_theta, c32[assign]
            ) - 0.5 * np.einsum("nf,nf->n", c32[assign], c32[assign])
            worst = np.argsort(fit, kind="stable")[: empty.size]
            centroids[empty] = fit_theta[worst].astype(np.float64)
        new_assign = _assign(fit_theta, centroids)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign

    # Relabel cells along the nearest-neighbour chain, then place every
    # catalogue item (not just the fit sample) with one exact pass.
    centroids = centroids[_locality_order(centroids)]
    assign = _assign(theta, centroids)
    perm, cell_ptr = _group(assign, ncells)
    theta_perm = np.ascontiguousarray(theta[perm])
    # Final centroids are the means of the final assignment (float32
    # for the probe GEMV), radii the max member distance per cell.
    centroids32, radii = _finalize_cells(theta_perm, cell_ptr)

    nprobe = cfg.nprobe if cfg.nprobe is not None else default_nprobe(ncells)
    return ItemIndex(
        centroids=centroids32,
        radii=radii,
        perm=perm,
        cell_ptr=cell_ptr,
        theta_perm=theta_perm,
        nprobe=min(nprobe, ncells),
        seed=cfg.seed,
        iters_run=iters_run,
    )


def clustered_catalog(
    n_users: int,
    n_items: int,
    f: int,
    *,
    clusters: int = 8,
    spread: float = 0.25,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded clustered factors ``(x, theta)`` — trained-MF structure.

    Trained MF embeddings are not isotropic noise: items concentrate
    around genre/taste directions and users sit near the items they
    rate highly.  This surrogate plants ``clusters`` shared Gaussian
    centers and scatters both items and users around them
    (``spread`` · unit noise), which is the structure that makes IVF
    probing meaningful — and what the bench and VF110 measure recall
    on.  Returns float32 ``x (n_users, f)`` and ``theta (n_items, f)``.
    The noise is drawn in float64 one row block at a time, straight
    into the float32 outputs; the stream is the one a single draw of
    each matrix takes, so the bytes do not depend on the block size.
    """
    if min(n_users, n_items, f, clusters) < 1:
        raise ValueError("n_users, n_items, f and clusters must be >= 1")
    if not 0.0 < spread <= 1.0:
        raise ValueError("spread must be in (0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 97]))
    centers = rng.normal(0.0, 1.0, (clusters, f))
    item_cluster = rng.integers(0, clusters, size=n_items)
    user_cluster = rng.integers(0, clusters, size=n_users)
    theta = _scatter(rng, centers, item_cluster, spread)
    x = _scatter(rng, centers, user_cluster, spread)
    return x, theta


def _scatter(
    rng: np.random.Generator,
    centers: np.ndarray,
    cluster: np.ndarray,
    spread: float,
) -> np.ndarray:
    """``centers[cluster] + spread * N(0, 1)`` as float32, by row block."""
    n, f = cluster.shape[0], centers.shape[1]
    out = np.empty((n, f), dtype=np.float32)
    near = np.empty((min(n, _ROW_BLOCK), f), dtype=np.float64)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        noise = rng.normal(0.0, 1.0, (hi - lo, f))
        noise *= spread
        # mode="clip" writes straight into ``near``; "raise" would stage
        # a bounds-checked copy, and every id is below ``clusters``.
        noise += np.take(
            centers, cluster[lo:hi], axis=0, out=near[: hi - lo], mode="clip"
        )
        out[lo:hi] = noise
        del noise  # free the block before the next draw allocates one
    return out
