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
* :class:`SharedSegments` — named, grow-only shared-memory blocks (the
  arrays workers write back into, or that outlive a fork), each
  unlinked exactly once on close.
* :meth:`Worker.reap` — kill, join and close a worker.
* :func:`backoff` — the exponential backoff schedule.

Policy stays with the clients: the executor's retry budget, deadlines
and serial degradation, the fleet's routing, heartbeats, respawn strikes
and inline latch.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from multiprocessing import connection, shared_memory
from multiprocessing.process import BaseProcess

import numpy as np

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
            # without reporting".
            if worker.conn in ready or (
                not worker.proc.is_alive() and worker.conn.poll()
            ):
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
            elif not worker.proc.is_alive():
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


class SharedSegments(dict):
    """Named, grow-only float32 shared-memory blocks (a name → block map).

    Each block is unlinked exactly once: :meth:`close` detaches the map
    before tearing the blocks down, so a re-entrant call — ``close()``
    racing ``__del__`` at interpreter shutdown — sees an empty map (a
    second unlink trips the multiprocessing resource_tracker's "leaked
    shared_memory" warning path), and one failing block cannot leak the
    others.
    """

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A float32 view of block ``name``, reallocated when too small.

        Drop every view of a block before the block is reallocated or
        closed: an exported buffer keeps its mapping alive.
        """
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * 4)
        blk = self.get(name)
        if blk is None or blk.size < nbytes:
            if blk is not None:
                _release(self.pop(name))
            blk = self[name] = shared_memory.SharedMemory(create=True, size=nbytes)
        return np.ndarray(shape, np.float32, buffer=blk.buf)

    def close(self) -> None:
        """Close and unlink every block (idempotent, exception-safe)."""
        blocks = list(self.values())
        self.clear()
        for blk in blocks:
            _release(blk)


def _release(blk: shared_memory.SharedMemory) -> None:
    try:
        blk.close()
    except (OSError, BufferError):
        pass
    try:
        blk.unlink()
    except OSError:
        pass  # another process already unlinked it
