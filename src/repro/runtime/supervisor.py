"""Forked-worker supervision shared by the shard executor and the fleet.

cuMF_ALS gets its speed by splitting each half-step's rows over
independent workers (paper §III Solution 2); the host analogue forks OS
processes.  Two clients fork and supervise workers —
:class:`~repro.runtime.executor.ShardExecutor` (one short-lived process
per shard attempt) and :class:`~repro.serving.fleet.FleetEngine`
(long-lived scoring workers) — and this module owns the mechanisms they
share:

* :func:`fork_worker` — fork ``target(*args, conn)`` with a context
  object the child reads through :func:`fork_context`, and a pipe whose
  child end the parent closes, so the parent sees pipe EOF the instant
  the worker dies.  The context crosses the fork copy-on-write: big
  read-only arrays reach the worker without any pickling.
* :func:`await_replies` — await one reply per worker, classifying each
  outcome as a reply, death by pipe EOF, death without a report, or a
  deadline overrun.
* :func:`shared_copy` and :class:`SharedSegments` — arrays in anonymous
  ``MAP_SHARED`` memory, created in the parent before the fork: the
  factors a worker reads, the output it writes back into.  Nothing is
  named, so no resource-tracker helper starts and a killed parent
  leaks nothing; the kernel frees a block when its last holder drops
  it.
* :meth:`Worker.reap` — kill, join and close a worker.
* :func:`backoff` — the exponential backoff schedule.

Policy stays with the clients: the executor's retry budget, deadlines
and serial degradation, the fleet's routing, heartbeats, respawn strikes
and inline latch.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from multiprocessing import connection
from multiprocessing.process import BaseProcess

import numpy as np
from numpy.typing import DTypeLike

__all__ = [
    "DEADLINE",
    "NO_RESULT",
    "PIPE_EOF",
    "SharedSegments",
    "Worker",
    "await_replies",
    "backoff",
    "fork_available",
    "fork_context",
    "fork_worker",
    "shared_copy",
]

#: Fault details :func:`await_replies` reports (the ``detail`` strings of
#: the clients' ``supervise.*`` / ``worker.*`` events).
PIPE_EOF = "worker died (pipe EOF)"
NO_RESULT = "worker died (no result)"
DEADLINE = "deadline exceeded"

# The one fork context.  Set in the parent only around ``Process.start``;
# the child sees a copy-on-write snapshot of whatever object was set.
_FORK_CTX: object | None = None


def fork_available() -> bool:
    """Whether this platform offers the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_context() -> object:
    """The context the running worker was forked with (child side)."""
    ctx = _FORK_CTX
    if ctx is None:
        raise RuntimeError("worker used outside a fork context")
    return ctx


@dataclass
class Worker:
    """Parent-side handle of one forked worker."""

    proc: BaseProcess
    conn: connection.Connection
    #: ``time.monotonic()`` by which the awaited reply is due; ``None``
    #: waits forever (a death still surfaces as pipe EOF).
    deadline: float | None = None

    def reap(self) -> None:
        """Kill, join and close the process and pipe (idempotent)."""
        try:
            self.proc.kill()
            self.proc.join()
        except (OSError, ValueError):
            pass  # already reaped
        self.conn.close()


def fork_worker(
    target: Callable, args: tuple, context: object, *, duplex: bool = False
) -> Worker:
    """Fork ``target(*args, conn)`` with ``context`` visible to the child.

    ``duplex=False`` gives a reply-only pipe (the child sends, the parent
    receives); ``duplex=True`` lets the parent send requests too.
    """
    global _FORK_CTX
    mp = multiprocessing.get_context("fork")
    parent_conn, child_conn = mp.Pipe(duplex=duplex)
    _FORK_CTX = context
    try:
        proc = mp.Process(target=target, args=(*args, child_conn), daemon=True)
        proc.start()
    finally:
        _FORK_CTX = None
        child_conn.close()  # the worker holds the only child end now
    return Worker(proc, parent_conn)


def await_replies(
    pending: dict,
    accept: Callable[[object, object], bool] | None = None,
) -> Iterator[tuple[object, Worker, object, str | None]]:
    """Await one reply from every worker in ``pending`` (key → Worker).

    Yields ``(key, worker, reply, fault)`` as outcomes arrive, removing
    the key from ``pending`` first; the caller may add workers between
    yields and they are awaited too.  ``fault`` is ``None`` for a reply,
    else :data:`PIPE_EOF`, :data:`NO_RESULT` or :data:`DEADLINE` — and
    the faulted worker has already been reaped.  A message ``accept``
    rejects (a stale pong or result) is dropped and the worker awaited
    further.
    """
    while pending:
        ready = connection.wait(
            [w.conn for w in pending.values()], timeout=0.02
        )
        now = time.monotonic()
        for key, worker in list(pending.items()):
            fault = None
            # A worker may send its reply and exit between the wait() and
            # this scan; once it is gone its reply is already buffered in
            # the pipe, so poll() separates "finished fast" from "died
            # without reporting".  Liveness is read once: a worker that
            # replies and exits after this read is seen on the next scan.
            alive = worker.proc.is_alive()
            if worker.conn in ready or (not alive and worker.conn.poll()):
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    fault = PIPE_EOF
                else:
                    if accept is not None and not accept(key, reply):
                        continue
                    del pending[key]
                    yield key, worker, reply, None
                    continue
            elif not alive:
                fault = NO_RESULT
            elif worker.deadline is not None and now > worker.deadline:
                fault = DEADLINE
            else:
                continue
            del pending[key]
            worker.reap()
            yield key, worker, None, fault


def backoff(
    seconds: float,
    factor: float,
    strikes: int,
    *,
    cap: float = math.inf,
    jitter: float = 0.0,
) -> float:
    """Exponential backoff: ``seconds * factor**strikes * (1 + jitter)``.

    ``jitter`` is the caller's stretch fraction for this site (the
    executor draws it from the fault plan's seeded stream, so chaos
    drills replay their sleeps); the result is capped at ``cap``.
    """
    return min(seconds * factor**strikes * (1.0 + jitter), cap)


def _shared_array(shape: tuple[int, ...], dtype: DTypeLike) -> np.ndarray:
    """A zeroed array in a fresh anonymous ``MAP_SHARED`` mapping.

    The array holds the mapping's buffer, so the mapping lives exactly
    as long as its last view, here and in every child forked after it.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    block = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(block, dtype, count).reshape(shape)


def shared_copy(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` that forked children share instead of copying."""
    out = _shared_array(a.shape, a.dtype)
    np.copyto(out, a)
    return out


class SharedSegments(dict):
    """Grow-only float32 shared blocks, one per name (a name → array map).

    A block is an anonymous shared mapping (:func:`_shared_array`), so
    it reaches every worker forked after :meth:`array` returns it.
    Dropping a block releases nothing another holder still uses: a
    view, or a forked child, keeps the mapping alive until it is gone.
    """

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A float32 view of block ``name``, reallocated when too small."""
        count = int(np.prod(shape, dtype=np.int64))
        blk = self.get(name)
        if blk is None or blk.size < count:
            blk = self[name] = _shared_array((count,), np.float32)
        return blk[:count].reshape(shape)

    def close(self) -> None:
        """Drop every block (idempotent)."""
        self.clear()
