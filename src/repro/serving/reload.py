"""Hot model reload: atomic, checksum-verified factor swaps under traffic.

A serving process must pick up retrained models without dropping
requests or restarting.  :class:`ModelStore` holds the factors the
engine scores against and swaps them atomically from a
persistence-v2 / checkpoint artifact:

* the artifact is loaded and integrity-checked **before** anything is
  replaced (:func:`repro.persistence.load_factors` verifies per-array
  SHA-256 checksums, format version, and shape agreement);
* non-finite factors are rejected the same way a corrupt file is — a
  model that would serve NaN scores never gets installed;
* any rejection **rolls back**: the store keeps serving the old
  factors, and the outcome says why;
* a swap to a bit-identical model is detected by content digest and
  becomes a **no-op** — the installed arrays are untouched, so scoring
  after the reload is bit-equivalent to scoring before it (the chaos
  drill asserts this byte-for-byte);
* with an :class:`~repro.serving.index.IndexConfig`, every *real* swap
  rebuilds the IVF retrieval index over the new item factors at
  install time; the digest-noop path **skips the rebuild** (the
  installed index is over the identical factors), and a budget-skipped
  build leaves the store index-less — the engine then serves the
  brute-force rung until the next successful build.

Reads are plain attribute access (the GIL makes the reference swap
atomic for the in-process engine); ``version`` increments only on a
real swap, which is what lets the stale cache date its entries.  The
installed factors are the process's one resident copy, kept in
anonymous shared memory (:func:`repro.runtime.supervisor.shared_copy`)
so the fleet's forked workers read these very pages.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from ..persistence import load_factors
from ..runtime import supervisor
from ..streaming.delta import state_digest
from .health import ServingHealth
from .index import IndexConfig, ItemIndex, build_index

__all__ = ["ModelStore", "ReloadOutcome"]


@dataclass(frozen=True)
class ReloadOutcome:
    """Result of one swap attempt (plain data, JSON-ready)."""

    status: str  # "swapped" | "noop" | "rolled-back" | "delta-applied"
    version: int  # model version serving *after* the attempt
    digest: str  # content digest serving after the attempt
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("swapped", "noop", "rolled-back", "delta-applied"):
            raise ValueError(f"unknown reload status {self.status!r}")


class ModelStore:
    """The factors currently being served, with atomic verified swaps."""

    def __init__(self, *, index_config: IndexConfig | None = None) -> None:
        self._x: np.ndarray | None = None
        self._theta: np.ndarray | None = None
        self.version = 0
        self.digest = ""
        self.path = ""
        self.swaps = 0
        self.rollbacks = 0
        self.index_config = index_config
        self._index: ItemIndex | None = None
        self.index_version = -1  # model version the index was built for
        self.index_builds = 0
        self.deltas_applied = 0

    @property
    def loaded(self) -> bool:
        return self._x is not None

    @property
    def index_enabled(self) -> bool:
        """Whether this store was configured to build retrieval indexes."""
        return self.index_config is not None

    @property
    def index(self) -> ItemIndex | None:
        return self._index

    @property
    def index_current(self) -> bool:
        """The installed index was built over the *serving* factors."""
        return self._index is not None and self.index_version == self.version

    def invalidate_index(self) -> None:
        """Drop the index (operator/chaos hook): next batches serve the
        brute-force rung until a swap rebuilds it."""
        self._index = None
        self.index_version = -1

    @property
    def x(self) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("no model loaded; call swap() first")
        return self._x

    @property
    def theta(self) -> np.ndarray:
        if self._theta is None:
            raise RuntimeError("no model loaded; call swap() first")
        return self._theta

    def swap(
        self,
        path: str | os.PathLike,
        *,
        health: ServingHealth | None = None,
        tick: int = -1,
    ) -> ReloadOutcome:
        """Attempt to install the model at ``path``; never degrades service.

        Raises only when there is no previous model to roll back to
        (initial load) — after that, every failure mode is a recorded
        ``rolled-back`` outcome and the old factors keep serving.
        """
        path = os.fspath(path)
        try:
            x, theta, _header = load_factors(path)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(theta))):
                raise ValueError("corrupt model file: non-finite factors")
        except ValueError as exc:
            if self._x is None:
                raise
            self.rollbacks += 1
            outcome = ReloadOutcome(
                status="rolled-back",
                version=self.version,
                digest=self.digest,
                detail=str(exc),
            )
            self._record(health, "reload.rolled-back", tick, str(exc))
            return outcome

        digest = state_digest(x, theta)
        if self._x is not None and digest == self.digest:
            # Bit-identical artifact: keep the installed arrays untouched
            # so post-reload scoring is trivially bit-equivalent.  The
            # retrieval index is a pure function of (theta, config), so
            # the rebuild is skipped too — the installed index stays.
            outcome = ReloadOutcome(
                status="noop",
                version=self.version,
                digest=self.digest,
                detail=f"digest unchanged ({digest[:12]})",
            )
            self._record(health, "reload.noop", tick, outcome.detail)
            return outcome

        self._x = supervisor.shared_copy(x)
        self._theta = supervisor.shared_copy(theta)
        del x, theta  # the loaded copies, before the index build
        self.version += 1
        self.digest = digest
        self.path = path
        self.swaps += 1
        detail = f"v{self.version} from {os.path.basename(path)}"
        self._record(health, "reload.swapped", tick, detail)
        if self.index_config is not None:
            self._build_index(health, tick)
        return ReloadOutcome(
            status="swapped", version=self.version, digest=digest, detail=detail
        )

    def apply_delta(
        self,
        *,
        users: np.ndarray | None = None,
        user_rows: np.ndarray | None = None,
        items: np.ndarray | None = None,
        item_rows: np.ndarray | None = None,
        seq: int = -1,
        health: ServingHealth | None = None,
        tick: int = -1,
    ) -> ReloadOutcome:
        """Install folded factor rows **without** a full reload.

        This is the streaming fold-in's publish step
        (:class:`repro.streaming.IngestEngine`): the given user/item rows
        are written into the serving arrays in place — O(changed rows),
        no artifact load, no index rebuild.  Semantics mirror
        :meth:`swap` where they can:

        * non-finite rows are rejected before anything is touched and
          the attempt **rolls back** (old rows keep serving);
        * the content **digest chain** advances — the new digest hashes
          the old digest together with the delta's ids and bytes, so
          every install remains detectable while costing O(delta), not
          O(model).  (A later :meth:`swap` of bit-identical factors will
          therefore *not* be detected as a noop; that path conservatively
          does a real swap.)
        * ``version`` increments so the stale cache dates its entries;
        * a current IVF index gets **cell surgery** instead of a rebuild
          (:meth:`~repro.serving.index.ItemIndex.update_items`): changed
          item rows are installed at their permuted slots and only the
          affected cells' ball bounds are invalidated and recomputed —
          untouched cells stay bit-identical and keep serving.
        """
        users_a = np.empty(0, dtype=np.int64) if users is None else np.asarray(users, dtype=np.int64)
        items_a = np.empty(0, dtype=np.int64) if items is None else np.asarray(items, dtype=np.int64)
        urows = None if user_rows is None else np.ascontiguousarray(user_rows, dtype=np.float32)
        irows = None if item_rows is None else np.ascontiguousarray(item_rows, dtype=np.float32)
        if self._x is None:
            raise RuntimeError("no model loaded; call swap() first")
        if users_a.size == 0 and items_a.size == 0:
            outcome = ReloadOutcome(
                status="noop",
                version=self.version,
                digest=self.digest,
                detail="empty delta",
            )
            self._record(health, "reload.noop", tick, outcome.detail)
            return outcome
        bad = (
            (urows is not None and not np.all(np.isfinite(urows)))
            or (irows is not None and not np.all(np.isfinite(irows)))
        )
        if bad:
            self.rollbacks += 1
            detail = f"delta seq {seq}: non-finite folded rows rejected"
            self._record(health, "reload.rolled-back", tick, detail)
            return ReloadOutcome(
                status="rolled-back",
                version=self.version,
                digest=self.digest,
                detail=detail,
            )
        h = hashlib.sha256()
        h.update(self.digest.encode())
        if users_a.size:
            if urows is None or urows.shape != (users_a.size, self._x.shape[1]):
                raise ValueError("user_rows must be (len(users), f)")
            self._x[users_a] = urows
            h.update(b"users")
            h.update(users_a.tobytes())
            h.update(urows.tobytes())
        if items_a.size:
            if irows is None or irows.shape != (items_a.size, self._theta.shape[1]):
                raise ValueError("item_rows must be (len(items), f)")
            self._theta[items_a] = irows
            h.update(b"items")
            h.update(items_a.tobytes())
            h.update(irows.tobytes())
        was_current = self.index_current
        self.version += 1
        self.digest = h.hexdigest()
        self.deltas_applied += 1
        cells_touched = 0
        if was_current and self._index is not None:
            if items_a.size:
                cells_touched = int(
                    self._index.update_items(items_a, irows).size
                )
            # User rows never enter the item index; after item surgery the
            # index covers the new factors exactly, so it stays current.
            self.index_version = self.version
        detail = (
            f"v{self.version} delta seq {seq}: {users_a.size} user / "
            f"{items_a.size} item rows, {cells_touched} cells re-bounded"
        )
        self._record(health, "reload.delta", tick, detail)
        return ReloadOutcome(
            status="delta-applied",
            version=self.version,
            digest=self.digest,
            detail=detail,
        )

    def _build_index(self, health: ServingHealth | None, tick: int) -> None:
        """Fit the IVF index over the just-installed factors.

        A budget-skipped build (``build_index`` returned ``None``)
        leaves the store index-less: the engine serves the distinct
        ``brute-force`` ladder rung until a later swap affords the
        build.  A stale index is never served.
        """
        index = build_index(self._theta, self.index_config)
        if index is None:
            self._index = None
            self.index_version = -1
            budget = self.index_config.budget
            self._record(
                health,
                "index.skipped",
                tick,
                f"budget {budget} below one Lloyd pass over "
                f"{self._theta.shape[0]} items",
            )
            return
        self._index = index
        self.index_version = self.version
        self.index_builds += 1
        self._record(
            health,
            "index.built",
            tick,
            f"v{self.version}: {index.ncells} cells over "
            f"{index.n_items} items ({index.iters_run} Lloyd pass(es))",
        )

    @staticmethod
    def _record(
        health: ServingHealth | None, kind: str, tick: int, detail: str
    ) -> None:
        if health is not None:
            health.record(kind, tick=tick, detail=detail)
