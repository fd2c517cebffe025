"""The forked-worker supervisor shared by the executor and the fleet.

Each await test forks a tiny real worker.  Every wait is bounded: a
supervision bug fails the test through the deadline or the global
per-test timeout instead of wedging CI.
"""

import os
import signal
import time
from multiprocessing import shared_memory
from types import SimpleNamespace

import pytest

from repro.runtime import supervisor

needs_fork = pytest.mark.skipif(
    not supervisor.fork_available(), reason="fork start method unavailable"
)


def _reply_and_exit(conn) -> None:
    conn.send(("ok", supervisor.fork_context()))
    conn.close()


def _die_silently(conn) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _hang(conn) -> None:
    time.sleep(60)


def _stale_then_reply(conn) -> None:
    conn.send("stale")
    conn.send("fresh")
    time.sleep(60)


def await_all(pending, accept=None):
    return list(supervisor.await_replies(pending, accept))


@needs_fork
class TestAwaitReplies:
    def test_reply_carries_the_fork_context(self):
        worker = supervisor.fork_worker(_reply_and_exit, (), "ctx-7")
        worker.deadline = time.monotonic() + 30
        [(key, got, reply, fault)] = await_all({"w": worker})
        worker.reap()
        assert (key, got, reply, fault) == ("w", worker, ("ok", "ctx-7"), None)
        assert supervisor._FORK_CTX is None  # the parent never keeps it

    def test_reply_buffered_by_an_exited_worker_is_not_a_death(self, monkeypatch):
        # The race guard: the worker replied and exited after wait()
        # returned without it.  Pin that interleaving by letting the
        # worker finish first and making wait() report nothing ready.
        worker = supervisor.fork_worker(_reply_and_exit, (), "ctx")
        worker.proc.join(timeout=30)
        assert not worker.proc.is_alive()
        monkeypatch.setattr(
            supervisor, "connection", SimpleNamespace(wait=lambda conns, timeout: [])
        )
        [(_, _, reply, fault)] = await_all({0: worker})
        worker.reap()
        assert fault is None
        assert reply == ("ok", "ctx")

    def test_death_surfaces_as_pipe_eof_and_is_reaped(self):
        worker = supervisor.fork_worker(_die_silently, (), None)
        worker.deadline = time.monotonic() + 30
        [(_, _, reply, fault)] = await_all({0: worker})
        assert (reply, fault) == (None, supervisor.PIPE_EOF)
        assert not worker.proc.is_alive()
        assert worker.conn.closed

    def test_deadline_kills_the_worker(self):
        worker = supervisor.fork_worker(_hang, (), None)
        worker.deadline = time.monotonic() + 0.05
        t0 = time.monotonic()
        [(_, _, reply, fault)] = await_all({0: worker})
        assert (reply, fault) == (None, supervisor.DEADLINE)
        assert time.monotonic() - t0 < 10
        assert not worker.proc.is_alive()
        assert worker.proc.exitcode == -signal.SIGKILL

    def test_rejected_messages_are_dropped(self):
        worker = supervisor.fork_worker(_stale_then_reply, (), None, duplex=True)
        worker.deadline = time.monotonic() + 30
        try:
            [(_, _, reply, fault)] = await_all(
                {0: worker}, accept=lambda _, msg: msg == "fresh"
            )
        finally:
            worker.reap()
        assert (reply, fault) == ("fresh", None)

    def test_workers_added_between_yields_are_awaited(self):
        pending = {0: supervisor.fork_worker(_reply_and_exit, (), 0)}
        seen = []
        for key, worker, reply, _ in supervisor.await_replies(pending):
            worker.reap()
            seen.append(reply)
            if key < 2:
                pending[key + 1] = supervisor.fork_worker(
                    _reply_and_exit, (), key + 1
                )
        assert seen == [("ok", 0), ("ok", 1), ("ok", 2)]


def test_fork_context_outside_a_worker_raises():
    with pytest.raises(RuntimeError, match="outside a fork context"):
        supervisor.fork_context()


class TestSharedSegments:
    @pytest.mark.filterwarnings("error")
    def test_grow_only_reuse_and_close(self):
        segs = supervisor.SharedSegments()
        a = segs.array("out", (4, 3))
        a[:] = 1.0
        first = segs["out"].name
        del a
        segs.array("out", (2, 3))  # fits: same block
        assert segs["out"].name == first
        segs.array("out", (8, 3))  # grows: the old block is unlinked
        grown = segs["out"].name
        assert grown != first
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=first)
        segs.close()
        assert segs == {}
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=grown)

    @pytest.mark.filterwarnings("error")
    def test_close_racing_del_unlinks_each_segment_once(self, monkeypatch):
        segs = supervisor.SharedSegments()
        for name in ("x", "theta"):
            segs.array(name, (3, 2))
        unlinked = []
        real_unlink = shared_memory.SharedMemory.unlink

        def counting_unlink(blk):
            unlinked.append(blk.name)
            # An owner's __del__ firing mid-teardown re-enters close().
            segs.close()
            real_unlink(blk)

        monkeypatch.setattr(shared_memory.SharedMemory, "unlink", counting_unlink)
        segs.close()
        segs.close()
        assert sorted(unlinked) == sorted(set(unlinked))
        assert len(unlinked) == 2
        assert segs == {}

