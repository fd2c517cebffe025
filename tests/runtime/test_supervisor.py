"""The forked-worker supervisor shared by the executor and the fleet.

Each await test forks a tiny real worker.  Every wait is bounded: a
supervision bug fails the test through the deadline or the global
per-test timeout instead of wedging CI.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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

    def test_reply_sent_while_the_scan_runs_is_not_a_death(self, monkeypatch):
        # The worker is alive when the scan reads its liveness, then
        # replies and exits before the scan would re-read it: the reply
        # must be collected on the next scan, not lost as NO_RESULT.
        worker = supervisor.fork_worker(_reply_and_exit, (), "ctx")
        worker.proc.join(timeout=30)
        assert not worker.proc.is_alive()
        proc = worker.proc
        answers = iter([True])
        worker.proc = SimpleNamespace(
            is_alive=lambda: next(answers, False),
            kill=proc.kill,
            join=proc.join,
        )
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


def _fill_shared(conn) -> None:
    for array in supervisor.fork_context():
        array[...] = 7.0
    conn.send("filled")
    conn.close()


class TestSharedSegments:
    def test_grow_only_reuse_and_close(self):
        segs = supervisor.SharedSegments()
        a = segs.array("out", (4, 3))
        a[:] = 1.0
        first = segs["out"]
        b = segs.array("out", (2, 3))  # fits: same block
        assert segs["out"] is first
        assert np.shares_memory(a, b)
        c = segs.array("out", (8, 3))  # grows: a new block
        assert segs["out"] is not first
        assert not np.shares_memory(a, c)
        segs.close()
        assert segs == {}
        segs.close()  # idempotent
        assert segs == {}
        # A view outlives the map: it holds its own mapping.
        assert a.sum() == 12.0
        c[:] = 2.0

    @needs_fork
    def test_blocks_are_shared_with_forked_workers(self):
        segs = supervisor.SharedSegments()
        out = segs.array("out", (5, 2))
        out[:] = 0.0
        copy = supervisor.shared_copy(np.arange(6, dtype=np.float64))
        assert copy.dtype == np.float64
        worker = supervisor.fork_worker(_fill_shared, (), (out, copy))
        worker.deadline = time.monotonic() + 30
        [(_, _, reply, fault)] = await_all({0: worker})
        worker.reap()
        assert (reply, fault) == ("filled", None)
        assert np.all(out == 7.0)
        assert np.all(copy == 7.0)
        segs.close()


_NO_NAMED_SEGMENTS = """
import os
import tempfile
from multiprocessing import resource_tracker

import numpy as np

from repro.core.als import ALSModel
from repro.core.config import ALSConfig, CGConfig
from repro.data import SyntheticConfig, generate_ratings
from repro.persistence import save_model
from repro.runtime import RuntimePlan, ShardExecutor
from repro.serving.fleet import FleetConfig, FleetEngine

ratings = generate_ratings(SyntheticConfig(m=80, n=30, nnz=900, seed=5))
rng = np.random.default_rng(1)
theta = rng.normal(0, 0.1, (30, 12)).astype(np.float32)
warm = rng.normal(0, 0.1, (80, 12)).astype(np.float32)
with ShardExecutor(RuntimePlan(shards=2, workers=2)) as executor:
    executor.half_step(
        ratings, theta, warm, lam=0.08, cg_config=CGConfig(max_iters=5)
    )
    assert executor._shm

model = ALSModel(ALSConfig(f=12, seed=0))
model.x_, model.theta_ = warm, theta
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.npz")
    save_model(path, model)
    with FleetEngine(path, fleet=FleetConfig(workers=2)) as fleet:
        rid = fleet.submit(user=3, k=4)
        fleet.run_until_drained()
        assert rid in fleet.results

assert resource_tracker._resource_tracker._pid is None, "tracker started"
print("ok")
"""


def _named_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


@needs_fork
def test_pool_and_fleet_start_no_resource_tracker_and_name_no_segment():
    before = _named_segments()
    env = dict(os.environ)
    src = str(Path(supervisor.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _NO_NAMED_SEGMENTS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
    assert _named_segments() <= before
