"""Sharded half-step executor (paper §III Solution 2, host analogue).

An ALS half-step — form every row's normal equations, solve them — is
embarrassingly parallel across rows.  cuMF_ALS exploits that by handing
contiguous nnz-balanced row ranges to thread blocks; this module does the
same on the host: :func:`partition_rows` splits the row space into
``plan.shards`` contiguous ranges of roughly equal nnz, and
:class:`ShardExecutor` runs them either serially in-process (the
deterministic default) or on forked worker processes that write their
row ranges in place into a :mod:`multiprocessing.shared_memory` output,
with zero serialization of the results.

Determinism is by construction, not by luck:

* rows are never split across shards (and chunks never split rows), so
  each row's A_u/b_u is formed from exactly its own entries in CSR
  order whatever the shard/chunk geometry;
* the CG solver's per-system arithmetic is independent of how the batch
  is grouped, so solving a shard's rows together or apart yields the
  same bits;
* shards write disjoint row ranges of the output, and the epoch-level
  accounting folds with order-independent reductions (``max`` of
  iterations, ``sum`` of matvecs).

Hence the factors are **bit-identical** for any ``shards``/``workers``/
``chunk_elems`` choice — the property the VF107 verification rule and
the runtime test suite pin down.

Workers are forked through :mod:`repro.runtime.supervisor`, which this
module shares with the serving fleet.  ``half_step`` has two paths: the
serial path runs the shards in-process, and the pool path forks one
process + result pipe per shard attempt, at most ``plan.workers`` at a
time.  A SIGKILLed worker surfaces instantly as pipe EOF, a deadline
kill cannot corrupt other shards' transport, and a retry is just a
fresh process — there is no shared pool state to poison.

**Supervision** (see :mod:`repro.resilience`) is policy on top of those
two paths: a :class:`~repro.runtime.plan.SupervisionPolicy` adds
per-shard deadlines, bounded exponential-backoff retry and automatic
pool→serial degradation after repeated faults;
:class:`~repro.resilience.faults.FaultPlan` and
:class:`~repro.resilience.guards.GuardPolicy` hook every shard; all of
it is reported on the executor's
:class:`~repro.resilience.health.RunHealth` log.  An executor without a
policy retries nothing and sets no deadline: a shard whose worker dies
fails the half-step with a ``RuntimeError`` naming the shard.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from ..core.cg import cg_solve_batched
from ..core.config import CGConfig, Precision, SolverKind
from ..core.direct import cholesky_solve_batched, lu_solve_batched
from ..core.hermitian import hermitian_rows
from ..resilience.faults import InjectedWorkerKill, inject_shard_start, solver_fault_hook
from ..resilience.health import RunHealth
from . import sanitizer, supervisor
from .arena import Workspace
from .plan import SERIAL_PLAN, RuntimePlan, SupervisionPolicy

__all__ = ["CsrView", "HalfStepResult", "ShardExecutor", "partition_rows"]


def partition_rows(row_ptr: np.ndarray, num_parts: int) -> list[tuple[int, int]]:
    """Split rows into ``num_parts`` contiguous ranges of balanced nnz.

    Greedy split at the quantiles of the cumulative nnz — the same
    static balancing the CUDA implementation uses when assigning row
    ranges to thread blocks or devices.
    """
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    m = len(row_ptr) - 1
    total = int(row_ptr[-1])
    bounds = [0]
    for k in range(1, num_parts):
        target = total * k / num_parts
        cut = int(np.searchsorted(row_ptr, target, side="left"))
        bounds.append(min(max(cut, bounds[-1]), m))
    bounds.append(m)
    return [(bounds[i], bounds[i + 1]) for i in range(num_parts)]


@dataclass(frozen=True)
class CsrView:
    """Duck-typed stand-in for :class:`repro.data.sparse.RatingMatrix`.

    ``hermitian_rows`` only reads ``m``/``n``/``row_ptr``/``col_idx``/
    ``row_val``, so a half-step can run on a bare CSR triplet without
    materializing the CSC half that ``RatingMatrix`` carries — which is
    what the bench harness and fork workers use.
    """

    m: int
    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    row_val: np.ndarray

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.row_ptr.shape != (self.m + 1,):
            raise ValueError(f"row_ptr must have {self.m + 1} entries")
        nnz = int(self.row_ptr[-1])
        if self.col_idx.shape != (nnz,) or self.row_val.shape != (nnz,):
            raise ValueError("col_idx/row_val must have one entry per nnz")

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])


@dataclass(frozen=True)
class HalfStepResult:
    """Factors plus the solver accounting the cost model prices."""

    factors: np.ndarray  # (rows, f), a persistent executor-owned buffer
    cg_iterations: int  # max CG iterations over the shards (epoch clock)
    cg_matvec_count: int  # total A·p products across all shards
    shards: int  # how many shards actually executed

    def __post_init__(self) -> None:
        if self.cg_iterations < 0 or self.cg_matvec_count < 0:
            raise ValueError("solver counters must be non-negative")
        if self.shards < 1:
            raise ValueError("at least one shard must have executed")


@dataclass(frozen=True)
class _HalfStep:
    """One half-step's inputs: everything a shard needs but its output.

    The pool path forks its workers with this as their context, so the
    big read-only arrays (CSR triplet, fixed side, warm start, per-nnz
    weights) reach them copy-on-write, without any pickling.
    ``faults``/``guard`` are the opt-in resilience hooks (a
    :class:`~repro.resilience.faults.FaultPlan` and a
    :class:`~repro.resilience.guards.GuardPolicy`; typed loosely because
    this module sits upstream of the guard module in the import graph);
    ``step`` is the executor's half-step counter, the fault plan's site
    coordinate.
    """

    ratings: object
    fixed: np.ndarray
    warm: np.ndarray | None
    plan: RuntimePlan
    workspace: Workspace | None
    lam: float
    solver: SolverKind
    cg_config: CGConfig
    precision: Precision
    direct: str
    gram: np.ndarray | None
    extra_diag: float
    entry_weights: np.ndarray | None
    bias_values: np.ndarray | None
    count_weighted_reg: bool
    faults: object | None
    guard: object | None
    step: int


def _compute_shard(
    job: _HalfStep,
    out: np.ndarray,
    lo: int,
    hi: int,
    shard: int = 0,
    attempt: int = 0,
    forked: bool = False,
) -> tuple[int, int, list]:
    """Form and solve rows [lo, hi), writing ``out[lo:hi]`` in place.

    Returns ``(cg_iterations, matvec_count, health_events)`` — the event
    list is empty unless faults or guards were active on this shard.
    """
    num = hi - lo
    events: list = []
    if num == 0:
        return 0, 0, events
    if job.faults is not None:
        inject_shard_start(
            job.faults, job.step, shard, attempt, forked=forked, events=events
        )
    f = job.fixed.shape[1]
    plan = job.plan
    ws = job.workspace
    san = sanitizer.enabled()
    if san:
        sanitizer.check_shard_bounds(
            lo, hi, out.shape[0], context="_compute_shard"
        )
    ab_out = None
    ab_tokens = None
    if ws is not None:
        ab_out = (ws.request("exec.A", (num, f, f)), ws.request("exec.b", (num, f)))
        if san:
            ab_tokens = (ws.generation("exec.A"), ws.generation("exec.b"))
    A, b = hermitian_rows(
        job.ratings,
        job.fixed,
        job.lam,
        rows=slice(lo, hi),
        chunk_elems=plan.chunk_elems,
        entry_weights=job.entry_weights,
        bias_values=job.bias_values,
        count_weighted_reg=job.count_weighted_reg,
        method=plan.method,
        workspace=ws,
        out=ab_out,
    )
    if job.gram is not None:
        A += job.gram[None, :, :]
    if job.extra_diag:
        diag = np.einsum("rff->rf", A)  # writable view of the diagonals
        diag += np.float32(job.extra_diag)
    guard = job.guard
    if guard is not None and guard.check_inputs:
        guard.check_normal(A, b, row_offset=lo)
    rows_out = out[lo:hi]
    warm_rows = None if job.warm is None else job.warm[lo:hi]
    witness = None
    if san:
        if ws is not None and ab_tokens is not None:
            ws.check_current("exec.A", ab_tokens[0], context="_compute_shard")
            ws.check_current("exec.b", ab_tokens[1], context="_compute_shard")
        # warm may alias out BY DESIGN (ALS warm-starts from the previous
        # factors living in the very buffer being overwritten; the solver
        # consumes x0 before writing out) — A and b must not.
        sanitizer.check_no_overlap("out[lo:hi]", rows_out, [("A", A), ("b", b)])
        if not forked:
            # outside-slice snapshot is only sound single-process: under a
            # fork pool the other shards legitimately write those rows
            witness = sanitizer.SliceWitness(out, lo, hi)
    if job.solver is SolverKind.CG:
        hook = None
        if job.faults is not None:
            hook = solver_fault_hook(
                job.faults, job.step, shard, attempt, lo, events
            )
        if guard is not None:
            it, mv = guard.solve(
                A,
                b,
                warm_rows,
                rows_out,
                cg_config=job.cg_config,
                precision=job.precision,
                workspace=ws,
                compact=plan.compact_cg,
                backend=plan.cg_backend,
                fault_hook=hook,
                row_offset=lo,
                step=job.step,
                shard=shard,
                attempt=attempt,
                events=events,
            )
            if witness is not None:
                witness.verify(context="_compute_shard (guarded solve)")
            return it, mv, events
        result = cg_solve_batched(
            A,
            b,
            x0=warm_rows,
            config=job.cg_config,
            precision=job.precision,
            workspace=ws,
            compact=plan.compact_cg,
            backend=plan.cg_backend,
            out=rows_out,
            fault_hook=hook,
        )
        if witness is not None:
            witness.verify(context="_compute_shard (cg solve)")
        return result.iterations, result.matvec_count, events
    solve = cholesky_solve_batched if job.direct == "cholesky" else lu_solve_batched
    np.copyto(rows_out, solve(A, b))
    if guard is not None:
        guard.check_factors(rows_out, stage="direct-solve", row_offset=lo)
    if witness is not None:
        witness.verify(context="_compute_shard (direct solve)")
    return 0, 0, events


def _shard_worker(lo: int, hi: int, shard: int, attempt: int, conn) -> None:
    """Forked shard entry: run one shard attempt, send the outcome.

    An injected worker-kill never reaches the ``except`` — it is a real
    ``SIGKILL`` in forked mode, and the parent detects the resulting
    pipe EOF.  Everything else (including a structured
    ``NumericalFault``) is shipped back for the parent to re-raise.
    """
    job, out = supervisor.fork_context()
    try:
        result = _compute_shard(job, out, lo, hi, shard, attempt, forked=True)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: B036 - must forward, not die silent
        try:
            conn.send(("error", exc))
        except Exception:
            pass  # parent is gone or the payload won't pickle; EOF covers it
    finally:
        conn.close()


#: The policy of an executor built without a SupervisionPolicy: a
#: faulted shard is not retried and nothing is timed out, so a dead
#: worker raises instead of hanging the half-step.
_UNSUPERVISED = SupervisionPolicy(max_retries=0, shard_deadline=None)


class ShardExecutor:
    """Executes ALS half-steps according to a :class:`RuntimePlan`.

    The executor owns the long-lived resources the plan needs: one
    workspace arena (so scratch survives across chunks, shards and
    epochs) and one persistent output buffer per factor ``key`` (so the
    solved factors land in place instead of a fresh allocation per
    half-step).  The returned ``factors`` array is that persistent
    buffer: it stays valid until the next half-step with the same key,
    which is exactly the lifetime ALS needs (the result becomes the next
    epoch's warm start / fixed side).

    Parameters
    ----------
    plan:
        The execution plan (sharding, workers, chunking, arena).
    supervision:
        Opt-in :class:`~repro.runtime.plan.SupervisionPolicy`: retries,
        deadlines, respawn and degradation.  Without one, a faulted
        shard is not retried, so a dead pool worker raises.
    faults:
        Opt-in :class:`~repro.resilience.faults.FaultPlan` — injected
        into every shard site, for chaos testing.
    guard:
        Opt-in :class:`~repro.resilience.guards.GuardPolicy` — numeric
        sentinels plus the degradation ladder around every solve.
    health:
        The :class:`~repro.resilience.health.RunHealth` log to report
        on; one is created automatically when any resilience hook is
        active, and it stays ``None`` with no hooks.
    """

    def __init__(
        self,
        plan: RuntimePlan = SERIAL_PLAN,
        *,
        supervision: SupervisionPolicy | None = None,
        faults=None,
        guard=None,
        health: RunHealth | None = None,
    ) -> None:
        self.plan = plan
        self.supervision = supervision
        self.faults = faults
        self.guard = guard
        supervised = supervision is not None or faults is not None or guard is not None
        self.health = health if health is not None else (
            RunHealth() if supervised else None
        )
        self.workspace = Workspace() if plan.arena else None
        #: Shard geometry of each half-step run with a fault plan, in step
        #: order — the input :func:`repro.resilience.faults.expected_fault_events`
        #: needs to enumerate a fault plan's injections for accounting.
        self.spans_log: list[list[tuple[int, int]]] = []
        self._outputs: dict[str, np.ndarray] = {}
        self._shm = supervisor.SharedSegments()
        self._warned_no_fork = False
        self._step = 0
        self._pool_faults = 0
        self._degraded = False

    # -- resource management ------------------------------------------------

    def _output(self, key: str, shape: tuple[int, int]) -> np.ndarray:
        buf = self._outputs.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float32)
            self._outputs[key] = buf
        return buf

    def close(self) -> None:
        """Release shared-memory blocks and cached scratch (idempotent).

        Each shared-memory segment is unlinked exactly once, even when
        ``close()`` races ``__del__`` (see
        :class:`~repro.runtime.supervisor.SharedSegments`).
        """
        self._shm.close()
        self._outputs.clear()
        if self.workspace is not None:
            try:
                self.workspace.release()
            except Exception:
                pass

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- execution ----------------------------------------------------------

    def half_step(
        self,
        ratings,
        fixed: np.ndarray,
        warm: np.ndarray | None = None,
        *,
        lam: float,
        solver: SolverKind = SolverKind.CG,
        cg_config: CGConfig | None = None,
        precision: Precision = Precision.FP32,
        key: str = "x",
        direct: str = "lu",
        gram: np.ndarray | None = None,
        extra_diag: float = 0.0,
        entry_weights: np.ndarray | None = None,
        bias_values: np.ndarray | None = None,
        count_weighted_reg: bool = True,
    ) -> HalfStepResult:
        """Solve every row subproblem of ``ratings`` against ``fixed``.

        Parameters mirror :func:`repro.core.hermitian.hermitian_rows`
        plus the solver choice; ``gram``/``extra_diag`` are the implicit
        ALS hooks (dense ΘᵀΘ term and plain-λ ridge added after the
        sparse accumulation).  ``key`` names the factor side being
        updated (``"x"``/``"theta"``) so each side keeps its own
        persistent output buffer.
        """
        job = _HalfStep(
            ratings=ratings,
            fixed=np.ascontiguousarray(fixed, dtype=np.float32),
            warm=warm,
            plan=self.plan,
            workspace=self.workspace,
            lam=lam,
            solver=solver,
            cg_config=cg_config or CGConfig(),
            precision=precision,
            direct=direct,
            gram=gram,
            extra_diag=extra_diag,
            entry_weights=entry_weights,
            bias_values=bias_values,
            count_weighted_reg=count_weighted_reg,
            faults=self.faults,
            guard=self.guard,
            step=self._step,
        )
        self._step += 1
        shape = (ratings.m, job.fixed.shape[1])
        spans = partition_rows(ratings.row_ptr, self.plan.shards)
        if sanitizer.enabled():
            sanitizer.check_spans(list(spans), ratings.m, context="half_step")
        if self.faults is not None:
            self.spans_log.append(list(spans))
        workers = 0 if self._degraded else min(self.plan.workers, len(spans))
        if workers > 0 and not supervisor.fork_available():
            if not self._warned_no_fork:
                self._warned_no_fork = True
                warnings.warn(
                    "fork start method unavailable; running shards serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
            workers = 0

        if workers == 0:
            out = self._output(key, shape)
            counters = [
                self._run_shard(job, out, lo, hi, shard, 0)
                for shard, (lo, hi) in enumerate(spans)
            ]
        else:
            out, counters = self._run_pool(job, key, shape, spans, workers)

        return HalfStepResult(
            factors=out,
            cg_iterations=max(it for it, _ in counters),
            cg_matvec_count=sum(mv for _, mv in counters),
            shards=len(spans),
        )

    def _run_shard(
        self,
        job: _HalfStep,
        out: np.ndarray,
        lo: int,
        hi: int,
        shard: int,
        attempt: int,
    ) -> tuple[int, int]:
        """One shard, in-process, with the bounded retry/backoff loop.

        Only :class:`InjectedWorkerKill` is retried — a deterministic
        error (a :class:`NumericalFault` the ladder could not repair, a
        caller bug) would fail identically on every attempt, so it
        propagates immediately.
        """
        while True:
            try:
                it, mv, events = _compute_shard(job, out, lo, hi, shard, attempt)
            except InjectedWorkerKill as exc:
                self.health.record(
                    "fault.worker-kill", step=job.step, shard=shard,
                    attempt=attempt, detail=str(exc),
                )
                if attempt >= self._policy.max_retries:
                    raise
                self._sleep_before_retry(job.step, shard, attempt)
                attempt += 1
                self.health.record(
                    "supervise.retry", step=job.step, shard=shard,
                    attempt=attempt,
                )
                continue
            if events:
                self.health.extend(events)
            return it, mv

    def _run_pool(
        self,
        job: _HalfStep,
        key: str,
        shape: tuple[int, int],
        spans: list[tuple[int, int]],
        workers: int,
    ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Fan the shards out: one forked process + result pipe per attempt.

        Only the output lives in shared memory; every input reaches the
        workers through the fork context.  Worker death shows up as pipe
        EOF (instant — no deadline wait); a deadline overrun gets the
        process SIGKILLed.  Either way only that shard is affected: its
        rows are recomputed wholesale on retry, so a mid-write kill
        cannot leave torn rows in the final factors.  After
        ``policy.pool_fault_limit`` faults the executor latches
        ``supervise.degrade-serial`` and finishes this (and every later)
        half-step in-process.
        """
        shard_deadline = self._policy.shard_deadline
        out_view = self._shm.array(f"{key}.out", shape)
        queue = [(shard, 0) for shard in range(len(spans))]
        running: dict[tuple[int, int], supervisor.Worker] = {}
        counters: dict[int, tuple[int, int]] = {}

        def launch() -> None:
            while queue and len(running) < workers and not self._degraded:
                shard, attempt = queue.pop(0)
                worker = supervisor.fork_worker(
                    _shard_worker, (*spans[shard], shard, attempt), (job, out_view)
                )
                if shard_deadline is not None:
                    worker.deadline = time.monotonic() + shard_deadline
                running[shard, attempt] = worker

        try:
            launch()
            for (shard, attempt), worker, reply, fault in supervisor.await_replies(
                running
            ):
                if fault is not None:
                    self._pool_fault(job.step, shard, attempt, fault, spans[shard], queue)
                else:
                    worker.reap()
                    status, payload = reply
                    if status != "ok":
                        raise payload  # worker exception, e.g. NumericalFault
                    it, mv, events = payload
                    if events:
                        self.health.extend(events)
                    counters[shard] = (it, mv)
                launch()
            # degraded mid-step: the shards still queued finish in-process
            for shard, attempt in queue:
                counters[shard] = self._run_shard(
                    job, out_view, *spans[shard], shard, attempt
                )
        finally:
            for worker in running.values():
                worker.reap()
        # Copy the solved factors out of the transport buffer so the
        # returned array follows the same persistent-buffer lifetime as
        # the serial path (and survives shm growth/unlink).
        out = self._output(key, shape)
        np.copyto(out, out_view)
        return out, [counters[i] for i in range(len(spans))]

    # -- supervision policy -------------------------------------------------

    @property
    def _policy(self) -> SupervisionPolicy:
        return self.supervision or _UNSUPERVISED

    def _sleep_before_retry(self, step: int, shard: int, attempt: int) -> None:
        """Back off before retrying one fault site.

        The jitter fraction comes from the fault plan's dedicated
        SeedSequence stream when a plan is active (replayable chaos
        drills), and is zero otherwise — global RNG state never enters
        the schedule.
        """
        policy = self._policy
        jitter = 0.0
        if policy.backoff_jitter > 0.0 and self.faults is not None:
            jitter = policy.backoff_jitter * self.faults.backoff_jitter(
                step, shard, attempt
            )
        time.sleep(
            supervisor.backoff(
                policy.backoff_seconds, policy.backoff_factor, attempt,
                jitter=jitter,
            )
        )

    def _record(self, kind: str, **fields) -> None:
        if self.health is not None:
            self.health.record(kind, **fields)

    def _pool_fault(
        self,
        step: int,
        shard: int,
        attempt: int,
        detail: str,
        span: tuple[int, int],
        queue: list[tuple[int, int]],
    ) -> None:
        """Account one pool fault and requeue the shard (or give up)."""
        policy = self._policy
        self._pool_faults += 1
        lo, hi = span
        planned_kill = (
            self.faults is not None
            and attempt == 0
            and hi > lo
            and self.faults.fires("fault.worker-kill", step, shard)
        )
        if planned_kill:
            self._record(
                "fault.worker-kill", step=step, shard=shard, attempt=attempt,
                detail=f"injected SIGKILL ({detail})",
            )
        elif detail == supervisor.DEADLINE:
            self._record(
                "supervise.deadline", step=step, shard=shard, attempt=attempt,
                detail=f"exceeded {policy.shard_deadline:g}s",
            )
        else:
            self._record(
                "supervise.respawn", step=step, shard=shard, attempt=attempt,
                detail=detail,
            )
        if attempt >= policy.max_retries:
            raise RuntimeError(
                f"shard {shard} of half-step {step} failed "
                f"{attempt + 1} time(s) ({detail}); retry budget exhausted"
            )
        self._sleep_before_retry(step, shard, attempt)
        self._record(
            "supervise.retry", step=step, shard=shard, attempt=attempt + 1,
            detail="respawning worker",
        )
        queue.append((shard, attempt + 1))
        if not self._degraded and self._pool_faults >= policy.pool_fault_limit:
            self._degraded = True
            self._record(
                "supervise.degrade-serial", step=step,
                detail=(
                    f"{self._pool_faults} pool fault(s) >= limit "
                    f"{policy.pool_fault_limit}; finishing serially"
                ),
            )
