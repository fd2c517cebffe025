"""`IngestEngine`: online fold-in of streamed ratings over dirty shards.

The batch trainers rebuild both factor matrices from scratch; the ingest
engine updates exactly the rows whose data changed.  Each streamed
rating is (1) made durable in the :class:`~repro.streaming.wal
.RatingsWAL` and acked, (2) merged into the engine's rating corpus and
marked in the **dirty-shard map**, and (3) folded in at the next
:meth:`apply`: each side's dirty rows are gathered into one compact
sub-matrix and solved by **one** warm-started
:meth:`~repro.runtime.executor.ShardExecutor.half_step` (``x0`` = the
rows' current factors — the single-row solve shape the paper's batched
CG was built for), under the same :class:`~repro.runtime.plan
.RuntimePlan` kernels the trainers use; user side first, then items
against the just-updated user rows.  A lane the solve leaves non-finite
is never installed: an exact LU half-step over just the poisoned rows
re-solves it.  Rows outside the dirty set are never touched, so they are
**bit-identical** before and after an apply — the drill and VF112 pin
that, not just assert it.

Every apply writes a barrier record into the WAL and a delta checkpoint
(:mod:`repro.streaming.delta`); crash-safe resume is therefore
``base checkpoint + ordered deltas + WAL tail``, and because barriers
pin the original apply *batching*, a resumed engine replays into
bit-identical factors (:meth:`IngestEngine.resume`).

Conventions: with ``alpha=None`` the engine folds in under the explicit
ALS-WR objective (λ scaled by the row's rating count, exactly
:class:`~repro.core.als.ALSModel`'s half-step); with ``alpha`` set it
uses the implicit-feedback hooks (confidence weights ``α·r``, preference
bias ``1 + α·r``, Gram-matrix completion, plain λ) matching
:class:`~repro.core.implicit.ImplicitALSModel`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

# perfbench/spans.py traces the fold-in kernels through these two names.
from ..core.cg import cg_solve_batched  # noqa: F401
from ..core.config import CGConfig, Precision, SolverKind
from ..core.hermitian import hermitian_rows  # noqa: F401
from ..data.sparse import RatingMatrix
from ..resilience.checkpoint import Checkpoint, latest_checkpoint, save_checkpoint
from ..runtime.executor import CsrView, ShardExecutor, partition_rows
from ..runtime.plan import RuntimePlan
from ..serving.health import ServingHealth
from .delta import (
    DeltaCheckpoint,
    StreamState,
    compact,
    resume_state,
    save_delta,
    state_digest,
)
from .wal import RatingsWAL

__all__ = ["FoldInResult", "IngestConfig", "IngestEngine"]


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of one streaming ingest pipeline (plain data, JSON-ready)."""

    lam: float = 0.05
    alpha: float | None = None  # None: explicit ALS-WR; set: implicit hooks
    shards: int = 4
    cg: CGConfig = CGConfig(max_iters=6)
    precision: Precision = Precision.FP32
    compact_every: int = 4  # deltas per compaction back to a full checkpoint
    segment_records: int = 1024  # WAL rotation threshold

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive (or None for explicit)")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        if self.segment_records < 1:
            raise ValueError("segment_records must be >= 1")

    def as_dict(self) -> dict:
        return {
            "lam": self.lam,
            "alpha": self.alpha,
            "shards": self.shards,
            "cg_max_iters": self.cg.max_iters,
            "cg_tol": self.cg.tol,
            "precision": self.precision.value,
            "compact_every": self.compact_every,
            "segment_records": self.segment_records,
        }


@dataclass
class FoldInResult:
    """What one :meth:`IngestEngine.apply` did (plain data + row payloads)."""

    seq: int = -1  # barrier sequence this apply covers (-1: noop)
    users: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    user_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.float32))
    items: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    item_rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.float32))
    applied_seqs: tuple[int, ...] = ()  # rating seqs folded in by this apply
    dirty_user_shards: tuple[int, ...] = ()
    dirty_item_shards: tuple[int, ...] = ()
    foldin_repairs: int = 0  # poisoned lanes detected and re-solved

    @property
    def noop(self) -> bool:
        return self.seq < 0


class IngestEngine:
    """Accumulate WAL deltas and fold them into the factors in place."""

    def __init__(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        base_ratings: RatingMatrix,
        *,
        config: IngestConfig | None = None,
        directory: str | os.PathLike,
        _state: StreamState | None = None,
    ) -> None:
        self.config = config or IngestConfig()
        self.directory = os.fspath(directory)
        self.x = np.ascontiguousarray(x, dtype=np.float32).copy()
        self.theta = np.ascontiguousarray(theta, dtype=np.float32).copy()
        if self.x.shape[1] != self.theta.shape[1]:
            raise ValueError("x and theta must share the factor dimension")
        self.m, self.f = self.x.shape
        self.n = self.theta.shape[0]
        if base_ratings.m != self.m or base_ratings.n != self.n:
            raise ValueError(
                f"base ratings {base_ratings.m}x{base_ratings.n} do not match "
                f"factors {self.m}x{self.n}"
            )
        # The corpus: base entries in CSR order, then streamed merges in
        # WAL-sequence order.  Replay reproduces the same insertion order,
        # which keeps the rebuilt CSR (and therefore every solve)
        # bit-identical across resumes.  Built from one ``tolist()`` per
        # CSR array (no NumPy scalar boxed per entry), sharing one int
        # object per row.
        self._entries: dict[tuple[int, int], float] = {}
        ptr = base_ratings.row_ptr.tolist()
        cols = base_ratings.col_idx.tolist()
        vals = base_ratings.row_val.tolist()
        for u in range(base_ratings.m):
            lo, hi = ptr[u], ptr[u + 1]
            self._entries.update(
                zip(zip(itertools.repeat(u, hi - lo), cols[lo:hi]), vals[lo:hi])
            )
        self._streamed: dict[tuple[int, int], float] = {}
        self._pending: list[tuple[int, int, int, float]] = []  # seq, u, v, r
        self._dirty_users: set[int] = set()
        self._dirty_items: set[int] = set()
        self.solved_users: set[int] = set()
        self.solved_items: set[int] = set()
        self.applies = 0
        self.compactions = 0
        self.torn_writes_repaired = 0
        self.foldin_repairs = 0
        #: Chaos hooks, armed by the drill via the serving engine's
        #: accounted ``_on_ingest_fault``: the *next* append is torn /
        #: the *next* fold-in gets one lane poisoned.
        self.tear_next_append = False
        self.poison_next_foldin = False
        self._last_repairs = 0
        # A fold-in solves only the dirty rows (a few thousand ratings per
        # half-step), too little work for a second lane (LANE_MIN_NNZ);
        # one shard also spares the per-shard kernel overhead.
        self.runtime = ShardExecutor(RuntimePlan(shards=1))

        self.wal = RatingsWAL(
            os.path.join(self.directory, "wal"),
            segment_records=self.config.segment_records,
        )
        if _state is not None:
            self.ordinal = _state.ordinal
            self.applied_seq = _state.applied_seq
            self._digest = _state.digest
            self._deltas_since_compact = _state.deltas_applied
        else:
            if latest_checkpoint(self.directory) is not None:
                raise ValueError(
                    f"{self.directory!r} already holds a stream; use "
                    "IngestEngine.resume()"
                )
            self.ordinal = 0
            self.applied_seq = self.wal.last_seq
            self._digest = state_digest(self.x, self.theta)
            self._deltas_since_compact = 0
            save_checkpoint(
                self.directory,
                Checkpoint(
                    epoch=0,
                    x=self.x,
                    theta=self.theta,
                    extra={"applied_seq": int(self.applied_seq), "streaming": True},
                ),
            )

    # -- construction from disk --------------------------------------------

    @classmethod
    def resume(
        cls,
        directory: str | os.PathLike,
        base_ratings: RatingMatrix,
        *,
        config: IngestConfig | None = None,
    ) -> "IngestEngine":
        """Rebuild bit-identical state: base + deltas + WAL tail replay.

        ``base_ratings`` is the batch training corpus the original engine
        was constructed over (persisted with the model, not in the WAL);
        streamed ratings are recovered from the corpus snapshot and the
        WAL.  Records above the factor high-water mark are replayed
        through the same fold-in path, re-running an apply at every
        barrier — so the resumed factors are bit-identical to the
        uninterrupted run's, which the kill-replay drill leg asserts.
        """
        state = resume_state(directory)
        engine = cls(
            state.x,
            state.theta,
            base_ratings,
            config=config,
            directory=directory,
            _state=state,
        )
        # Corpus snapshot: streamed entries already durable at compaction.
        for u, v, r in zip(
            state.corpus_users, state.corpus_items, state.corpus_ratings
        ):
            key = (int(u), int(v))
            engine._entries[key] = float(r)
            engine._streamed[key] = float(r)
        # WAL replay: merge reflected records, re-apply the tail.
        for rec in engine.wal.replay():
            if rec.seq <= state.corpus_seq:
                continue
            if rec.kind == "rating":
                key = (rec.user, rec.item)
                engine._entries[key] = rec.rating
                engine._streamed[key] = rec.rating
                if rec.seq > state.applied_seq:
                    engine._pending.append(
                        (rec.seq, rec.user, rec.item, rec.rating)
                    )
                    engine._dirty_users.add(rec.user)
                    engine._dirty_items.add(rec.item)
            elif rec.seq > state.applied_seq:
                engine._apply_at_barrier(rec.seq)
        return engine

    # -- ingest path --------------------------------------------------------

    @property
    def digest(self) -> str:
        """State digest of the current factors (chain-verified)."""
        return self._digest

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def ingest(
        self,
        user: int,
        item: int,
        rating: float,
        *,
        health: ServingHealth | None = None,
        tick: int = -1,
    ) -> int:
        """Durably log one rating and ack it; returns the WAL sequence."""
        if not 0 <= user < self.m:
            raise ValueError(f"user {user} outside [0, {self.m})")
        if not 0 <= item < self.n:
            raise ValueError(f"item {item} outside [0, {self.n})")
        rating = float(rating)
        if self.tear_next_append:
            # The armed wal-torn-write fault: the first append attempt
            # tears (power loss mid-write), recovery truncates the torn
            # tail, and the append is retried cleanly.  The rating is
            # only acked after the retry's fsync.
            self.tear_next_append = False
            self.wal.append_torn(user, item, rating)
            dropped = self.wal.repair_tail()
            self.torn_writes_repaired += 1
            if health is not None:
                health.record(
                    "wal.recovered",
                    tick=tick,
                    detail=f"torn tail truncated ({dropped} bytes)",
                )
        seq = self.wal.append(user, item, rating)
        key = (user, item)
        self._entries[key] = rating
        self._streamed[key] = rating
        self._pending.append((seq, user, item, rating))
        self._dirty_users.add(user)
        self._dirty_items.add(item)
        if health is not None:
            health.record(
                "ingest.acked",
                tick=tick,
                request_id=seq,
                user=user,
                detail=f"item {item} rating {rating:g}",
            )
        return seq

    # -- fold-in ------------------------------------------------------------

    def _matrix(self) -> RatingMatrix:
        keys = self._entries.keys()
        rows = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
        cols = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
        vals = np.fromiter(
            self._entries.values(), dtype=np.float32, count=len(self._entries)
        )
        return RatingMatrix.from_coo(rows, cols, vals, m=self.m, n=self.n)

    @staticmethod
    def _gather(matrix: RatingMatrix | CsrView, rows: np.ndarray) -> CsrView:
        """CSR view holding exactly ``rows`` (re-numbered 0..k), in CSR order."""
        lo, hi = matrix.row_ptr[rows], matrix.row_ptr[rows + 1]
        row_ptr = np.concatenate(([0], np.cumsum(hi - lo)))
        idx = np.repeat(lo - row_ptr[:-1], hi - lo) + np.arange(row_ptr[-1])
        return CsrView(len(rows), matrix.n, row_ptr, matrix.col_idx[idx], matrix.row_val[idx])

    def _solve(
        self,
        sub: CsrView,
        fixed: np.ndarray,
        warm: np.ndarray | None,
        *,
        key: str,
        solver: SolverKind = SolverKind.CG,
    ) -> np.ndarray:
        """One half-step over every row of ``sub``, into the ``key`` buffer."""
        cfg = self.config
        if cfg.alpha is None:
            hooks = {"lam": cfg.lam}
        else:  # exactly ImplicitALSModel's half-step hooks
            hooks = {
                "lam": 0.0,
                "gram": fixed.T @ fixed,
                "extra_diag": cfg.lam,
                "entry_weights": cfg.alpha * sub.row_val,
                "bias_values": 1.0 + cfg.alpha * sub.row_val,
                "count_weighted_reg": False,
            }
        return self.runtime.half_step(
            sub,
            fixed,
            warm,
            solver=solver,
            cg_config=cfg.cg,
            precision=cfg.precision,
            key=key,
            **hooks,
        ).factors

    def _fold_side(
        self,
        matrix: RatingMatrix,
        fixed: np.ndarray,
        target: np.ndarray,
        dirty: set[int],
        key: str,
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """One half of an apply: one warm-started solve of the dirty rows."""
        ids = np.array(sorted(dirty), dtype=np.int64)
        if ids.size == 0:
            return ids, np.empty((0, self.f), dtype=np.float32), ()
        spans = partition_rows(matrix.row_ptr, self.config.shards)
        shards_hit = tuple(
            shard for shard, (lo, hi) in enumerate(spans) if np.any((ids >= lo) & (ids < hi))
        )
        sub = self._gather(matrix, ids)
        solved = self._solve(sub, fixed, target[ids], key=key)
        if self.poison_next_foldin:
            # The armed fold-in-nan fault: one solved lane is flipped to
            # NaN before install, as a corrupted solver store would.
            self.poison_next_foldin = False
            solved[0] = np.nan
        bad = np.flatnonzero(~np.all(np.isfinite(solved), axis=1))
        if bad.size:
            # Never install a poisoned row: re-solve broken lanes from
            # their pristine normal equations (exact, like the guard
            # ladder's LU rung).
            solved[bad] = self._solve(
                self._gather(sub, bad), fixed, None, key="repair", solver=SolverKind.LU
            )
            self.foldin_repairs += bad.size
            self._last_repairs += bad.size
        rows = solved.copy()  # the executor reuses its buffer next apply
        target[ids] = rows
        return ids, rows, shards_hit

    def apply(
        self,
        *,
        health: ServingHealth | None = None,
        tick: int = -1,
        checkpoint: bool = True,
    ) -> FoldInResult:
        """Fold every pending rating into the factors; returns the result.

        Writes the WAL barrier first (so replay re-applies at the same
        boundary), solves dirty user rows against the item factors and
        dirty item rows against the updated user rows, installs them,
        and persists a delta checkpoint — compacting the chain every
        ``compact_every`` deltas.  A call with nothing pending is a
        recorded noop.
        """
        if not self._pending:
            return FoldInResult()
        barrier_seq = self.wal.append_barrier()
        return self._apply_at_barrier(
            barrier_seq, health=health, tick=tick, checkpoint=checkpoint
        )

    def _apply_at_barrier(
        self,
        barrier_seq: int,
        *,
        health: ServingHealth | None = None,
        tick: int = -1,
        checkpoint: bool = True,
    ) -> FoldInResult:
        self._last_repairs = 0
        matrix = self._matrix()
        users, user_rows, user_shards = self._fold_side(
            matrix, self.theta, self.x, self._dirty_users, "x"
        )
        items, item_rows, item_shards = self._fold_side(
            matrix.transpose(), self.x, self.theta, self._dirty_items, "theta"
        )
        applied_seqs = tuple(seq for seq, *_rest in self._pending)
        parent = self._digest
        self._digest = state_digest(self.x, self.theta)
        self.ordinal += 1
        self.applied_seq = barrier_seq
        self.applies += 1
        self.solved_users.update(int(u) for u in users)
        self.solved_items.update(int(v) for v in items)
        self._pending.clear()
        self._dirty_users.clear()
        self._dirty_items.clear()
        if checkpoint:
            save_delta(
                self.directory,
                DeltaCheckpoint(
                    ordinal=self.ordinal,
                    parent_digest=parent,
                    result_digest=self._digest,
                    applied_seq=barrier_seq,
                    users=users,
                    user_rows=user_rows,
                    items=items,
                    item_rows=item_rows,
                ),
            )
            self._deltas_since_compact += 1
            if self._deltas_since_compact >= self.config.compact_every:
                self._compact(health=health, tick=tick)
        if health is not None:
            for seq in applied_seqs:
                health.record(
                    "ingest.applied",
                    tick=tick,
                    request_id=seq,
                    detail=f"barrier {barrier_seq}",
                )
        return FoldInResult(
            seq=barrier_seq,
            users=users,
            user_rows=user_rows,
            items=items,
            item_rows=item_rows,
            applied_seqs=applied_seqs,
            dirty_user_shards=user_shards,
            dirty_item_shards=item_shards,
            foldin_repairs=self._last_repairs,
        )

    def _compact(
        self, *, health: ServingHealth | None = None, tick: int = -1
    ) -> None:
        keys = self._streamed.keys()
        cu = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
        ci = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
        cr = np.fromiter(
            self._streamed.values(), dtype=np.float32, count=len(self._streamed)
        )
        compact(
            self.directory,
            ordinal=self.ordinal,
            x=self.x,
            theta=self.theta,
            applied_seq=self.applied_seq,
            corpus_users=cu,
            corpus_items=ci,
            corpus_ratings=cr,
        )
        self.wal.truncate_through(self.applied_seq)
        self._deltas_since_compact = 0
        self.compactions += 1
        if health is not None:
            health.record(
                "ingest.compacted",
                tick=tick,
                detail=(
                    f"ordinal {self.ordinal}, {len(self._streamed)} streamed "
                    f"entries, seq {self.applied_seq}"
                ),
            )

    def stats(self) -> dict:
        """Operational snapshot (JSON-ready)."""
        return {
            "applies": self.applies,
            "compactions": self.compactions,
            "pending": len(self._pending),
            "streamed_entries": len(self._streamed),
            "solved_users": len(self.solved_users),
            "solved_items": len(self.solved_items),
            "applied_seq": self.applied_seq,
            "last_seq": self.wal.last_seq,
            "ordinal": self.ordinal,
            "torn_writes_repaired": self.torn_writes_repaired,
            "foldin_repairs": self.foldin_repairs,
            "digest": self._digest,
        }

    def close(self) -> None:
        self.wal.close()
