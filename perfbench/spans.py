"""Span ledger for the traced run, recorded from outside the program.

Each layer's public functions are wrapped at the module or class
attribute their callers look up (``repro.runtime.executor.hermitian_rows``
and ``repro.streaming.ingest.hermitian_rows`` are two entries, because
each module imported its own reference).  A wrapper times the call with
``time.perf_counter_ns``, charges the duration to its parent span, and
adds ``duration - time covered by child spans`` to the layer's self time
under the current phase.  Nothing under ``src/`` is modified; the
patches live for the lifetime of the benchmark process.

Work counts (FLOPs, bytes) are *computed* from argument shapes with the
per-side instantiation of Table I (``repro.harness.experiments
.table1_complexity``), never measured:

* ``get_hermitian``: C = Nz·f², M = (Nz·f + rows·f²) float32 elements;
* ``solve(CG)``: C = 2·f² per system per iteration, M = f² elements per
  system per iteration; the solver's ``matvec_count`` is the number of
  system-iterations it really ran (frozen lanes drop out).
"""

from __future__ import annotations

import os
import time
import weakref
from collections import defaultdict

F32 = 4  # bytes per element: every host-side factor and A_u is float32


class Ledger:
    """Self time, call counts and work counters keyed by (phase, layer)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.phase = "setup"
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.phase_wall: dict[str, float] = defaultdict(float)
        self._stack: list[list[int]] = []
        # Executor -> (half_step calls, arena allocations after last call).
        self._arenas: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, layer: str, fn, after=None):
        """Return ``fn`` timed as ``layer``; ``after(args, kwargs, result)``
        runs outside the timed interval to add work counters."""
        ledger = self

        def traced(*args, **kwargs):
            # A forked fleet worker inherits the patch but not the ledger.
            if os.getpid() != ledger.pid:
                return fn(*args, **kwargs)
            frame = [0]
            ledger._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                ledger._stack.pop()
                if ledger._stack:
                    ledger._stack[-1][0] += elapsed
                key = (ledger.phase, layer)
                ledger.self_ns[key] += elapsed - frame[0]
                ledger.calls[key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- totals ----------------------------------------------------------

    def self_s(self, layer: str, phase: str | None = None) -> float:
        return sum(
            ns for (p, name), ns in self.self_ns.items()
            if name == layer and (phase is None or p == phase)
        ) / 1e9

    def total_calls(self, layer: str) -> int:
        return sum(n for (_p, name), n in self.calls.items() if name == layer)

    def layers(self, phase: str) -> dict[str, float]:
        return {
            name: ns / 1e9
            for (p, name), ns in self.self_ns.items()
            if p == phase
        }

    # -- work counters fed by ``after`` hooks ------------------------------

    def hermitian_work(self, args, kwargs, _result) -> None:
        ratings, fixed = args[0], args[1]
        rows = kwargs.get("rows")
        lo, hi = (0, ratings.m) if rows is None else (rows.start, rows.stop)
        nz = int(ratings.row_ptr[hi] - ratings.row_ptr[lo])
        f = fixed.shape[1]
        self.counters["core.hermitian.flops"] += nz * f * f
        self.counters["core.hermitian.bytes"] += (nz * f + (hi - lo) * f * f) * F32

    def cg_work(self, args, _kwargs, result) -> None:
        f = args[0].shape[-1]
        self.counters["core.cg.iters"] += result.iterations
        self.counters["core.cg.flops"] += 2 * f * f * result.matvec_count
        self.counters["core.cg.bytes"] += f * f * result.matvec_count * F32

    def half_step_arena(self, args, _kwargs, _result) -> None:
        """Count arena allocations after an executor's first epoch."""
        executor = args[0]
        ws = executor.workspace
        if ws is None:
            return
        calls, last = self._arenas.get(executor, (0, 0))
        if calls >= 2:  # one epoch = two half-steps warms every buffer
            self.counters["runtime.arena.steady_allocs"] += ws.allocations - last
        self._arenas[executor] = (calls + 1, ws.allocations)

    def apply_work(self, _args, _kwargs, result) -> None:
        if result.noop:
            return
        self.counters["streaming.applied_ratings"] += len(result.applied_seqs)
        self.counters["streaming.rows_folded"] += result.users.size + result.items.size

    def savez_bytes(self, args, kwargs, _result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counters["resilience.atomic_savez.bytes"] += os.path.getsize(path)


def install(ledger: Ledger) -> None:
    """Patch every traced layer entry point for this process."""
    import repro.core.als as als
    import repro.data.datasets as datasets
    import repro.persistence as persistence
    import repro.resilience.checkpoint as checkpoint
    import repro.runtime.executor as executor
    import repro.serving.index as index
    import repro.serving.reload as reload
    import repro.streaming.delta as delta
    import repro.streaming.ingest as ingest
    from repro.data.sparse import RatingMatrix
    from repro.runtime.executor import ShardExecutor
    from repro.serving.batcher import MicroBatcher
    from repro.serving.engine import ServingEngine
    from repro.serving.fleet import FleetEngine
    from repro.serving.index import ItemIndex
    from repro.serving.reload import ModelStore
    from repro.streaming.ingest import IngestEngine
    from repro.streaming.wal import RatingsWAL

    def patch(owner, attr: str, layer: str, after=None) -> None:
        setattr(owner, attr, ledger.wrap(layer, getattr(owner, attr), after))

    for module in (executor, ingest):
        patch(module, "hermitian_rows", "core.hermitian", ledger.hermitian_work)
        patch(module, "cg_solve_batched", "core.cg", ledger.cg_work)
    patch(ShardExecutor, "half_step", "runtime.half_step", ledger.half_step_arena)
    patch(als, "rmse", "metrics.rmse")
    patch(datasets, "generate_ratings", "data.generate")
    patch(index, "clustered_catalog", "data.generate")
    RatingMatrix.from_coo = staticmethod(
        ledger.wrap("data.from_coo", RatingMatrix.from_coo)
    )
    patch(ServingEngine, "submit", "serving.submit")
    patch(ServingEngine, "tick", "serving.tick")
    patch(FleetEngine, "tick", "serving.tick")
    patch(MicroBatcher, "score_batch", "serving.score_batch")
    patch(reload, "build_index", "serving.build_index")
    patch(ModelStore, "apply_delta", "serving.apply_delta")
    patch(ItemIndex, "update_items", "serving.update_items")
    patch(RatingsWAL, "append", "streaming.wal_append")
    patch(IngestEngine, "ingest", "streaming.ingest")
    patch(IngestEngine, "apply", "streaming.apply", ledger.apply_work)
    patch(ingest, "state_digest", "streaming.state_digest")
    patch(ingest, "save_delta", "streaming.save_delta")
    patch(ingest, "compact", "streaming.compact")
    for module in (delta, checkpoint, persistence):
        patch(module, "atomic_savez", "resilience.atomic_savez", ledger.savez_bytes)
    patch(os, "fsync", "resilience.fsync")
