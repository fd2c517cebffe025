"""The three paths a workload drives: batch training, fleet serving, ingest.

Every workload runs all three, because every run reports every metric
of its kind.  The workload's own path runs at full size; the other two
run as fixed small probes, so that a layer does most of the work in one
workload and little in the others.

* ``train``: ``ALSModel(ALSConfig(f=32, lam=spec.lam)).fit`` with the
  default runtime plan on the netflix surrogate until ``spec.target_rmse``.
  Timed cold: each fit builds a fresh model, executor and arena.  The
  data and initial factors are the package defaults, not drawn from the
  seed (see ``setup_train``).
* ``serve``: open-loop Poisson top-10 traffic with Zipf-skewed users
  through a fault-free one-worker ``FleetEngine`` with an IVF index over
  a ``clustered_catalog``, then a saturated closed loop that submits
  ``max_batch`` requests per tick.
* ``ingest``: open-loop ratings through ``IngestEngine.ingest`` beside
  open-loop reads on an in-process ``ServingEngine`` with an IVF index.
  Events are handled in due-time order; before a read is ticked, any
  pending ratings are applied and installed with
  ``ModelStore.apply_delta`` (the ingest drill's read-your-writes
  policy), so the apply batching depends on the schedule only.

Latencies count from the moment a request was due, so a stalled driver
shows up in them; ``lag`` is how late each request was actually sent.
A request that is shed, faulted or answered from a fallback rung is a
failure.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import repro.data.datasets as datasets
import repro.serving.index as index_mod
from repro.core.als import ALSModel
from repro.core.config import ALSConfig
from repro.persistence import save_model
from repro.serving.batcher import MicroBatcher
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.fleet import FleetConfig, FleetEngine
from repro.serving.health import TERMINAL_KINDS
from repro.serving.index import IndexConfig, recall_floor
from repro.serving.queue import Request
from repro.streaming import IngestConfig, IngestEngine

F = 32
K = 10
DATASET = "netflix"
EPOCH_CAP = 10
ZIPF_EXPONENT = 1.1
MAX_BATCH = 32
SATURATED_WINDOWS = 10
SERVING = ServingConfig(queue_capacity=4096, max_batch=MAX_BATCH, budget_ticks=64)


@dataclass(frozen=True)
class TrainSize:
    scale: float  # load_surrogate scale of the netflix surrogate
    fits: int


@dataclass(frozen=True)
class ServeSize:
    users: int
    items: int
    clusters: int
    rate: float  # open-loop requests/s
    open_s: float | None  # None: 3/4 of --seconds
    saturated_s: float | None  # None: 1/4 of --seconds
    recall_sample: int


@dataclass(frozen=True)
class IngestSize:
    scale: float
    read_rate: float  # open-loop reads/s
    session_rate: float  # open-loop rating sessions/s
    session_ratings: int  # ratings one session submits at once
    seconds: float | None  # None: --seconds


TRAIN = {"full": TrainSize(scale=1.0, fits=1), "probe": TrainSize(scale=0.1, fits=5)}
SERVE = {
    "full": ServeSize(
        users=4096, items=262_144, clusters=64, rate=300.0,
        open_s=None, saturated_s=None, recall_sample=256,
    ),
    "probe": ServeSize(
        users=2048, items=32_768, clusters=64, rate=300.0,
        open_s=3.0, saturated_s=2.0, recall_sample=256,
    ),
}
INGEST = {
    "full": IngestSize(
        scale=1.0, read_rate=50.0, session_rate=2.0, session_ratings=16, seconds=None
    ),
    "probe": IngestSize(
        scale=0.1, read_rate=200.0, session_rate=8.0, session_ratings=16, seconds=4.0
    ),
}


@dataclass
class Outcome:
    """Raw observations of one path; ``run.py`` turns them into metrics."""

    counts: dict = field(default_factory=dict)  # phase -> [sent, failed]
    #: (due seconds, latency ms) per request stream: read, ack, visible.
    samples: dict = field(default_factory=dict)
    lag_ms: list = field(default_factory=list)
    idle_s: float = 0.0  # driver asleep waiting for the next due time
    gates: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    lists: dict = field(default_factory=dict)

    def count(self, phase: str, sent: int = 0, failed: int = 0) -> None:
        tally = self.counts.setdefault(phase, [0, 0])
        tally[0] += sent
        tally[1] += failed

    def count_terminals(self, phase: str, events) -> None:
        """Count terminal events; anything but an answer is a failure."""
        events = list(events)
        failed = sum(e.kind != "request.answered" for e in events)
        self.count(phase, len(events), failed)

    @property
    def sent(self) -> int:
        return sum(sent for sent, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.counts.values())


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _poisson_dues(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    expected = rate * seconds
    gaps = rng.exponential(1.0 / rate, int(expected + 10 * np.sqrt(expected) + 16))
    dues = np.cumsum(gaps)
    if dues[-1] < seconds:
        raise RuntimeError("Poisson schedule drew too few arrivals")
    return dues[dues < seconds]


def _zipf_users(rng: np.random.Generator, n_users: int, count: int) -> np.ndarray:
    p = np.arange(1, n_users + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return rng.permutation(n_users)[rng.choice(n_users, size=count, p=p / p.sum())]


def _sleep_until(t0: float, due: float, out: Outcome) -> None:
    """Sleep until ``due`` seconds after ``t0``; the time slept is idle."""
    start = time.perf_counter()
    if due > start - t0:
        time.sleep(due - (start - t0))
        out.idle_s += time.perf_counter() - start


def _save_factors(path: str, x: np.ndarray, theta: np.ndarray) -> str:
    model = ALSModel(ALSConfig(f=x.shape[1]))
    model.x_, model.theta_ = x, theta
    save_model(path, model)
    return path


class _Terminals:
    """Reads an engine's health log incrementally for request outcomes."""

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine
        self.mark = len(engine.health.events)

    def drain(self):
        events = self.engine.health.events
        new, self.mark = events[self.mark:], len(events)
        return [e for e in new if e.kind in TERMINAL_KINDS]


# -- train ---------------------------------------------------------------


def setup_train(size: TrainSize, seed: int, workdir: str):
    # The fixed surrogate and initial factors that ``repro train`` uses,
    # whatever the seed: the epochs needed to reach the target differ by
    # seed (2 or 3), so a seeded problem would time different work.
    return datasets.load_surrogate(DATASET, scale=size.scale)


def run_train(state, size: TrainSize, seconds: float, seed: int) -> Outcome:
    split, spec = state
    out = Outcome()
    fit_s, rmses = [], []
    reached = True
    for _ in range(size.fits):
        model = ALSModel(ALSConfig(f=F, lam=spec.lam))
        start = time.perf_counter()
        curve = model.fit(
            split.train, split.test, epochs=EPOCH_CAP, target_rmse=spec.target_rmse
        )
        fit_s.append(time.perf_counter() - start)
        rmses.append(curve.points[-1].rmse)
        missed = curve.points[-1].rmse > spec.target_rmse
        reached &= not missed
        out.count("fit", 1, int(missed))
    out.gates["train_reached_target_rmse"] = bool(reached)
    out.lists["fit_s"] = fit_s
    out.lists["test_rmse"] = rmses
    return out


def close_train(state) -> None:
    pass


# -- serve ---------------------------------------------------------------


@dataclass
class ServeState:
    engine: FleetEngine
    x: np.ndarray
    theta: np.ndarray


def setup_serve(size: ServeSize, seed: int, workdir: str) -> ServeState:
    x, theta = index_mod.clustered_catalog(
        size.users, size.items, F, clusters=size.clusters, seed=seed
    )
    path = _save_factors(os.path.join(workdir, f"serve-{size.items}.npz"), x, theta)
    engine = FleetEngine(
        path,
        config=SERVING,
        fleet=FleetConfig(workers=1, heartbeat_timeout=1.0),
        index_config=IndexConfig(seed=seed),
    )
    return ServeState(engine, x, theta)


def close_serve(state: ServeState) -> None:
    state.engine.close()


def _drive_reads(engine, users, dues, out: Outcome, tick_start: dict, submitted: dict) -> None:
    """Open-loop reads: submit whatever is due, tick while work is queued."""
    terminals = _Terminals(engine)
    due_of = {}
    reads = out.samples.setdefault("read", [])
    t0 = time.perf_counter()
    i, n = 0, len(dues)
    while i < n or len(engine.queue):
        now = time.perf_counter() - t0
        while i < n and dues[i] <= now:
            rid = engine.submit(int(users[i]), K)
            sent = time.perf_counter() - t0
            out.lag_ms.append((sent - dues[i]) * 1e3)
            due_of[rid] = dues[i]
            submitted[rid] = sent
            i += 1
        if len(engine.queue):
            tick_start[engine.tick_now] = time.perf_counter() - t0
            engine.tick()
        elif i < n:
            _sleep_until(t0, dues[i], out)
        done = time.perf_counter() - t0
        for e in terminals.drain():
            if e.kind == "request.answered":
                due = due_of[e.request_id]
                reads.append((due, (done - due) * 1e3))
            out.count_terminals("open loop", [e])


def _queue_stats(engine, tick_start: dict, submitted: dict) -> dict:
    """Batch size per served tick and submit-to-tick-start wait."""
    per_tick: dict[int, int] = {}
    waits = []
    for e in engine.health.events:
        if e.kind == "request.answered" and e.request_id in submitted:
            per_tick[e.tick] = per_tick.get(e.tick, 0) + 1
            if e.tick in tick_start:
                waits.append(tick_start[e.tick] - submitted[e.request_id])
    return {
        "ticks": len(per_tick),
        "requests": sum(per_tick.values()),
        "wait_ms": [w * 1e3 for w in waits],
    }


def run_serve(state: ServeState, size: ServeSize, seconds: float, seed: int) -> Outcome:
    engine = state.engine
    out = Outcome()
    rng = _rng(seed, 11)
    open_s = size.open_s if size.open_s is not None else 0.75 * seconds
    sat_s = size.saturated_s if size.saturated_s is not None else 0.25 * seconds

    # Warm the worker's arena at the largest batch before timing.
    warm = _Terminals(engine)
    for u in _zipf_users(rng, size.users, 2 * MAX_BATCH):
        engine.submit(int(u), K)
    engine.run_until_drained()
    out.count_terminals("warm-up", warm.drain())

    dues = _poisson_dues(rng, size.rate, open_s)
    users = _zipf_users(rng, size.users, len(dues))
    tick_start: dict = {}
    submitted: dict = {}
    _drive_reads(engine, users, dues, out, tick_start, submitted)
    out.values["queue"] = _queue_stats(engine, tick_start, submitted)

    # Saturated closed loop: max_batch new requests every tick.  The
    # rate is the median over SATURATED_WINDOWS consecutive runs of
    # ticks, so a short stall of the host does not decide it.
    sat_users = _zipf_users(rng, size.users, 1 << 16)
    terminals = _Terminals(engine)
    ticks = []  # (start, end, answered) per tick
    sat_sent = 0
    start = time.perf_counter()
    while (begin := time.perf_counter()) - start < sat_s:
        for _ in range(MAX_BATCH):
            engine.submit(int(sat_users[sat_sent % len(sat_users)]), K)
            sat_sent += 1
        engine.tick()
        done = terminals.drain()
        out.count_terminals("saturated", done)
        answered = sum(e.kind == "request.answered" for e in done)
        ticks.append((begin, time.perf_counter(), answered))
    engine.run_until_drained()
    out.count_terminals("saturated", terminals.drain())
    per = len(ticks) // SATURATED_WINDOWS
    rates = [
        sum(t[2] for t in group) / (group[-1][1] - group[0][0])
        for group in (ticks[w * per:(w + 1) * per] for w in range(SATURATED_WINDOWS))
    ]
    out.values["max_rps"] = float(np.median(rates))

    # Correctness: recall@10 against exact float64 top-10 on a fixed sample.
    sample = _rng(seed, 12).choice(size.users, size=size.recall_sample, replace=False)
    rids = [engine.submit(int(u), K) for u in sample]
    engine.run_until_drained()
    out.count_terminals("recall", terminals.drain())
    theta64 = state.theta.astype(np.float64)
    hits = []
    for j, (u, rid) in enumerate(zip(sample, rids)):
        exact = np.argpartition(-(theta64 @ state.x[u].astype(np.float64)), K)[:K]
        hits.append(len({i for i, _ in engine.results.get(rid, [])} & set(exact.tolist())))
    recall = float(np.mean(hits)) / K
    index = engine.store.index
    batcher = MicroBatcher()
    batcher.score_batch(
        engine.store.x,
        engine.store.theta,
        [Request(request_id=j, user=int(u), k=K, submitted_tick=0, deadline_tick=1 << 30)
         for j, u in enumerate(sample)],
        index=index,
    )
    stats = engine.stats()
    out.values.update(
        recall=recall,
        recall_floor=recall_floor(index.nprobe, index.ncells),
        scored_frac=batcher.items_scored / (len(sample) * size.items),
        worker_batches=stats["fleet_worker_batches"],
        heartbeat_misses=stats["fleet_heartbeat_misses"],
        respawns=stats["fleet_respawns"],
    )
    out.gates["serve_audit_clean"] = not engine.health.audit()
    out.gates["serve_fleet_healthy"] = (
        stats["fleet_heartbeat_misses"] == 0 and stats["fleet_respawns"] == 0
        and stats["fleet_live_workers"] == 1
    )
    return out


# -- ingest --------------------------------------------------------------


@dataclass
class IngestState:
    engine: ServingEngine
    ingest: IngestEngine
    m: int
    n: int


def setup_ingest(size: IngestSize, seed: int, workdir: str) -> IngestState:
    split, spec = datasets.load_surrogate(DATASET, seed=seed, scale=size.scale)
    train = split.train
    rng = _rng(seed, 21)
    x = rng.normal(0.0, 0.3, (train.m, F)).astype(np.float32)
    theta = rng.normal(0.0, 0.3, (train.n, F)).astype(np.float32)
    stem = tempfile.mkdtemp(prefix="ingest-", dir=workdir)
    engine = ServingEngine(
        _save_factors(stem + ".npz", x, theta),
        config=SERVING,
        index_config=IndexConfig(seed=seed),
    )
    ingest = IngestEngine(
        x, theta, train, config=IngestConfig(lam=spec.lam), directory=stem
    )
    return IngestState(engine, ingest, train.m, train.n)


def close_ingest(state: IngestState) -> None:
    state.ingest.close()


def run_ingest(state: IngestState, size: IngestSize, seconds: float, seed: int) -> Outcome:
    engine, ingest, store = state.engine, state.ingest, state.engine.store
    out = Outcome()
    rng = _rng(seed, 31)
    span = size.seconds if size.seconds is not None else seconds

    # Warm the in-process batcher's arena and the index path.
    warm = _Terminals(engine)
    for u in _zipf_users(rng, state.m, 4):
        engine.submit(int(u), K)
        engine.tick()
    out.count_terminals("warm-up", warm.drain())
    arena = engine.batcher.workspace
    warm_allocs = arena.allocations
    terminals = _Terminals(engine)

    # A session is one user rating ``session_ratings`` distinct items at
    # once; sessions and reads arrive as independent Poisson streams.
    read_dues = _poisson_dues(rng, size.read_rate, span)
    session_dues = _poisson_dues(rng, size.session_rate, span)
    readers = _zipf_users(rng, state.m, len(read_dues))
    ratings = [
        (due, int(user), int(item), float(value))
        for due, user in zip(session_dues, rng.integers(0, state.m, len(session_dues)))
        for item, value in zip(
            rng.choice(state.n, size.session_ratings, replace=False),
            rng.uniform(1.0, 5.0, size.session_ratings).astype(np.float32),
        )
    ]
    order = sorted(
        [(r[0], 0, j) for j, r in enumerate(ratings)]
        + [(d, 1, j) for j, d in enumerate(read_dues)]
    )

    reads = out.samples.setdefault("read", [])
    acks = out.samples.setdefault("ack", [])
    visible = out.samples.setdefault("visible", [])
    unapplied = []  # (due, ack time) of acked ratings not yet installed
    installs = []

    def publish() -> None:
        result = ingest.apply(health=engine.health, tick=engine.tick_now)
        if result.noop:
            return
        outcome = store.apply_delta(
            users=result.users, user_rows=result.user_rows,
            items=result.items, item_rows=result.item_rows,
            seq=result.seq, health=engine.health, tick=engine.tick_now,
        )
        installed = time.perf_counter()
        installs.append(outcome.status)
        visible.extend((due, (installed - acked) * 1e3) for due, acked in unapplied)
        unapplied.clear()

    due_of = {}
    t0 = time.perf_counter()
    for due, kind, j in order:
        _sleep_until(t0, due, out)
        out.lag_ms.append((time.perf_counter() - t0 - due) * 1e3)
        if kind == 0:
            _due, user, item, value = ratings[j]
            ingest.ingest(user, item, value, health=engine.health, tick=engine.tick_now)
            acked = time.perf_counter()
            acks.append((due, (acked - t0 - due) * 1e3))
            unapplied.append((due, acked))
            out.count("ratings", 1)
            continue
        due_of[engine.submit(int(readers[j]), K)] = due
        if ingest.pending_count:
            publish()
        engine.tick()
        done = time.perf_counter() - t0
        for e in terminals.drain():
            if e.kind == "request.answered":
                reads.append((due_of[e.request_id], (done - due_of[e.request_id]) * 1e3))
            out.count_terminals("reads", [e])
    publish()
    stats = ingest.stats()
    out.values.update(
        applies=stats["applies"],
        compactions=stats["compactions"],
        serving_steady_allocs=arena.allocations - warm_allocs,
    )
    out.gates["ingest_audit_clean"] = not engine.health.audit()
    out.gates["ingest_read_your_writes"] = not engine.health.read_your_writes_audit()
    out.gates["ingest_store_matches_engine"] = (
        store.x.tobytes() == ingest.x.tobytes()
        and store.theta.tobytes() == ingest.theta.tobytes()
    )
    out.gates["ingest_deltas_installed"] = all(s == "delta-applied" for s in installs)
    return out


PATHS = {
    "train": (TRAIN, setup_train, run_train, close_train),
    "serve": (SERVE, setup_serve, run_serve, close_serve),
    "ingest": (INGEST, setup_ingest, run_ingest, close_ingest),
}
