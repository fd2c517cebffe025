"""Micro-batching: many top-k requests, one GEMM (or a few probed slices).

Scoring one user against the item factors is a GEMV; scoring a batch is
a single GEMM with far better arithmetic intensity — the same
batching argument the paper makes for batched CG solves (§V).  The
batcher gathers the batch's user factors into a
:class:`~repro.runtime.arena.Workspace` buffer and multiplies against
``theta`` in one ``np.matmul`` into arena scratch, so steady-state
serving performs **zero** large allocations (the arena's counters prove
it, exactly as they do for training).

When an :class:`~repro.serving.index.ItemIndex` is installed, requests
route through the sublinear path instead: probe ``nprobe`` cells per
user (ball-bound ranking), score only the probed items — **exactly**,
as dense ``theta_perm`` slices into the same arena — and merge with the
shared deterministic top-k.  A request whose effective ``nprobe``
reaches ``ncells`` routes through the literal brute-force GEMM, so the
exactness endpoint of the knob is bit-identical to serving without an
index.

Non-finite score rows are *detected here* and reported to the engine
rather than silently truncated to garbage top-k lists — a NaN lane
(whether from a corrupted factor row or an injected ``score-nan``
fault) must degrade that request, never answer it.
"""

from __future__ import annotations

import numpy as np

from ..runtime.arena import Workspace
from .index import ItemIndex
from .queue import Request

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Scores request batches through a shared workspace arena."""

    def __init__(self, workspace: Workspace | None = None) -> None:
        self.workspace = workspace if workspace is not None else Workspace()
        self.batches = 0
        self.requests_scored = 0
        #: Requests served via the IVF probe path vs the full GEMM.
        self.index_routed = 0
        self.brute_routed = 0
        #: Item scores actually computed (the sublinearity observable:
        #: the bench's ``scored_fraction`` is this over requests·n_items).
        self.items_scored = 0

    def score_batch(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        requests: list[Request],
        *,
        poison_row: int | None = None,
        index: ItemIndex | None = None,
        nprobe: int | None = None,
    ) -> tuple[list[list[tuple[int, float]] | None], list[int]]:
        """Score ``requests`` against factors ``(x, theta)``.

        Returns ``(results, bad_rows)`` where ``results[i]`` is request
        ``i``'s top-k list (``None`` for a non-finite row) and
        ``bad_rows`` lists the indices whose scores came out non-finite.
        ``poison_row`` is the chaos hook: the
        ``fault.score-nan`` injection NaNs that row *after* scoring, so
        detection exercises the same path a real corruption would.

        With ``index`` installed, each request resolves an effective
        probe count — ``request.nprobe``, else the call's ``nprobe``,
        else ``index.nprobe`` — and routes through the probed path when
        it is below ``index.ncells``; at or above it the request joins
        the brute-force GEMM group (the knob's exactness endpoint).
        """
        if not requests:
            return [], []
        batch = len(requests)
        f = x.shape[1]
        n_items = theta.shape[0]
        users = np.fromiter(
            (r.user for r in requests), dtype=np.int64, count=batch
        )
        if users.max() >= x.shape[0]:
            raise IndexError("batch contains an unknown user id")

        probes = np.full(batch, -1, dtype=np.int64)  # -1: brute force
        groups: dict[int, list[int]] = {}  # effective nprobe -> rows
        if index is not None:
            for i, request in enumerate(requests):
                p = request.nprobe
                if p is None:
                    p = nprobe if nprobe is not None else index.nprobe
                if p < index.ncells:
                    probes[i] = p
                    groups.setdefault(int(p), []).append(i)
        brute_rows = [i for i in range(batch) if probes[i] < 0]

        self.batches += 1
        self.requests_scored += batch
        results: list[list[tuple[int, float]] | None] = [None] * batch
        bad_rows: list[int] = []

        if brute_rows:
            nb = len(brute_rows)
            xb = self.workspace.request("serving.users", (nb, f), np.float32)
            np.take(x, users[brute_rows], axis=0, out=xb, mode="clip")
            scores = self.workspace.request(
                "serving.scores", (nb, n_items), np.float32
            )
            np.matmul(xb, theta.T, out=scores)
            self.brute_routed += nb
            self.items_scored += nb * n_items
            for row_pos, i in enumerate(brute_rows):
                row = scores[row_pos]
                if poison_row == i:
                    row[:] = np.nan
                if not np.all(np.isfinite(row)):
                    bad_rows.append(i)
                    continue
                results[i] = self._top_k(row, requests[i])

        for p, rows in sorted(groups.items()):
            self._score_probed(
                x, users, requests, rows, p, index, poison_row, results, bad_rows
            )

        bad_rows.sort()
        return results, bad_rows

    def _score_probed(
        self,
        x: np.ndarray,
        users: np.ndarray,
        requests: list[Request],
        rows: list[int],
        p: int,
        index: ItemIndex,
        poison_row: int | None,
        results: list,
        bad_rows: list[int],
    ) -> None:
        """Serve one probe-count group of the batch through the index.

        Cell selection is batched — one ``(group, f) @ (f, ncells)``
        bound GEMM plus one row-wise ``argpartition`` — so the per-
        request work is just the probed ``theta_perm`` slice GEMVs and
        a candidate-sized top-k.  Item ids are resolved *lazily*: only
        the top-k candidates map through ``perm`` (the full candidate
        id vector is materialized only to honour ``exclude``).
        """
        ws = self.workspace
        g = len(rows)
        f = x.shape[1]
        ncells = index.ncells
        xg = ws.request("serving.index.users", (g, f), np.float32)
        np.take(x, users[rows], axis=0, out=xg, mode="clip")
        bounds = ws.request("serving.index.bounds", (g, ncells), np.float32)
        np.matmul(xg, index.centroids.T, out=bounds)
        unorms = np.sqrt(np.einsum("gf,gf->g", xg, xg))
        bounds += unorms[:, None] * index.radii[None, :]
        bounds[:, index.empty_mask] = -np.inf
        cells = np.argpartition(bounds, ncells - p, axis=1)[:, ncells - p :]
        cells.sort(axis=1)
        starts = index.cell_ptr[cells]
        ends = index.cell_ptr[cells + 1]
        self.index_routed += g
        # Candidate scratch is sized for the largest set any p-cell probe
        # of this index can select, not for this request's set, so the
        # arena grows once per (index, p) rather than whenever a request
        # probes more items than any before it.
        capacity = index.probe_capacity(p)
        for j, i in enumerate(rows):
            s, e = starts[j], ends[j]
            # Merge the sorted probed cells into contiguous [lo, hi)
            # runs; empty cells (s == e) vanish inside or between runs.
            brk = np.flatnonzero(s[1:] != e[:-1])
            lo = s[np.concatenate(([0], brk + 1))]
            hi = e[np.concatenate((brk, [p - 1]))]
            keep = hi > lo
            lo, hi = lo[keep], hi[keep]
            cums = np.concatenate(([0], np.cumsum(hi - lo)))
            n_sel = int(cums[-1])
            self.items_scored += n_sel
            request = requests[i]
            if n_sel == 0:  # every probed cell empty: nothing to rank
                results[i] = []
                continue
            sel_scores = ws.request(
                "serving.index.scores", (capacity,), np.float32
            )[:n_sel]
            u = xg[j]
            # BLAS gemv tails process the out buffer in full SIMD width,
            # so stale bytes past the slice (arena scratch from earlier,
            # larger requests) can set the FPU invalid flag spuriously —
            # the result itself is exact and the finite scan below is
            # the authoritative check.
            with np.errstate(invalid="ignore"):
                for r in range(lo.size):
                    np.matmul(
                        index.theta_perm[lo[r] : hi[r]],
                        u,
                        out=sel_scores[cums[r] : cums[r + 1]],
                    )
            if poison_row == i:
                sel_scores[:] = np.nan
            if not np.all(np.isfinite(sel_scores)):
                bad_rows.append(i)
                continue
            if request.exclude:
                sel_items = ws.request(
                    "serving.index.items", (capacity,), np.int64
                )[:n_sel]
                for r in range(lo.size):
                    sel_items[cums[r] : cums[r + 1]] = index.perm[
                        lo[r] : hi[r]
                    ]
                results[i] = self._top_k(sel_scores, request, items=sel_items)
            else:
                results[i] = self._top_k_positional(
                    sel_scores, request.k, index.perm, lo, cums
                )

    @staticmethod
    def _top_k_positional(
        scores: np.ndarray,
        k: int,
        perm: np.ndarray,
        run_lo: np.ndarray,
        run_cums: np.ndarray,
    ) -> list[tuple[int, float]]:
        """Tie-pinned top-k that resolves ids for candidates only.

        Positions within the probed concatenation map back to
        ``theta_perm`` rows through the run table (``run_lo``,
        ``run_cums``) and then to item ids through ``perm`` — the hot
        path never copies the full candidate id vector.  The pinned
        rule is the same as :meth:`_top_k`: score descending, item id
        ascending.
        """
        k = min(k, scores.size)
        if k < 1:
            return []
        survivors = np.argpartition(scores, scores.size - k)[scores.size - k :]
        kth = scores[survivors].min()
        candidates = np.flatnonzero(scores >= kth)
        seg = np.searchsorted(run_cums, candidates, side="right") - 1
        ids = perm[run_lo[seg] + candidates - run_cums[seg]]
        order = np.lexsort((ids, -scores[candidates]))[:k]
        return [
            (int(ids[j]), float(scores[candidates[j]])) for j in order
        ]

    @staticmethod
    def _top_k(
        scores: np.ndarray,
        request: Request,
        items: np.ndarray | None = None,
    ) -> list[tuple[int, float]]:
        """Deterministic top-k: descending score, ties by ascending id.

        ``argpartition`` gets the k survivors in O(n); the boundary is
        then re-drawn by value so a tie at the k-th score never depends
        on partition order — the pinned rule is *score descending, item
        id ascending*, identical on the brute and probed paths.  When
        ``items`` is given, ``scores[j]`` belongs to item ``items[j]``
        (the probed path's cell-contiguous candidates).
        """
        # The scores are arena scratch, so masking exclusions in place
        # is free.
        if request.exclude:
            excluded = np.asarray(request.exclude, dtype=np.int64)
            if items is None:
                scores[excluded] = -np.inf
            else:
                scores[np.isin(items, excluded)] = -np.inf
        k = min(request.k, scores.size)
        if k < 1:
            return []
        survivors = np.argpartition(scores, scores.size - k)[
            scores.size - k :
        ]
        kth = scores[survivors].min()
        if np.isfinite(kth):
            candidates = np.flatnonzero(scores >= kth)
        else:  # exclusions reached the boundary: keep the finite scores
            candidates = np.flatnonzero(np.isfinite(scores))
        ids = candidates if items is None else items[candidates]
        order = np.lexsort((ids, -scores[candidates]))[:k]
        return [
            (int(ids[j]), float(scores[candidates[j]])) for j in order
        ]
