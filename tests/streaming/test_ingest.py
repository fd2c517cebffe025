"""IngestEngine: fold-in contracts, clean-row bit-identity, kill-replay."""

import numpy as np
import pytest

from repro.core import cg_solve_batched, hermitian_rows, lu_solve_batched
from repro.core.config import CGConfig
from repro.data.sparse import RatingMatrix
from repro.runtime.executor import partition_rows
from repro.serving.health import ServingHealth
from repro.streaming import IngestConfig, IngestEngine
from repro.streaming.delta import list_deltas


def make_corpus(m=12, n=9, f=4, nnz=60, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.uniform(1.0, 5.0, size=nnz).astype(np.float32)
    ratings = RatingMatrix.from_coo(rows, cols, vals, m=m, n=n)
    x = rng.standard_normal((m, f)).astype(np.float32)
    theta = rng.standard_normal((n, f)).astype(np.float32)
    return ratings, x, theta


def make_engine(directory, seed=0, **cfg_kwargs):
    ratings, x, theta = make_corpus(seed=seed)
    cfg_kwargs.setdefault("cg", CGConfig(max_iters=8))
    engine = IngestEngine(
        x, theta, ratings, config=IngestConfig(**cfg_kwargs), directory=directory
    )
    return engine, ratings, x, theta


def stream_ops(count, seed=0, m=12, n=9):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(0, m)), int(rng.integers(0, n)),
         float(rng.uniform(1.0, 5.0)))
        for _ in range(count)
    ]


def seed_fold_side(corpus, fixed, target, dirty, cfg, poison):
    """One fold-in side as composed by hand: per dirty shard, hermitian
    rows + warm-started CG, poisoned lanes re-solved by LU."""
    csr, f = corpus.to_scipy(), fixed.shape[1]
    ids = np.array(sorted(dirty), dtype=np.int64)
    solved = []
    for lo, hi in partition_rows(corpus.row_ptr, cfg.shards):
        rows = ids[(ids >= lo) & (ids < hi)]
        if rows.size == 0:
            continue
        sub = RatingMatrix.from_scipy(csr[rows])
        if cfg.alpha is None:
            A, b = hermitian_rows(sub, fixed, cfg.lam)
        else:
            A, b = hermitian_rows(
                sub, fixed, 0.0,
                entry_weights=cfg.alpha * sub.row_val,
                bias_values=1.0 + cfg.alpha * sub.row_val,
                count_weighted_reg=False,
            )
            A += (fixed.T @ fixed)[None]
            A[:, np.arange(f), np.arange(f)] += np.float32(cfg.lam)
        x = cg_solve_batched(
            A, b, x0=target[rows].copy(), config=cfg.cg, precision=cfg.precision
        ).x
        if poison:
            x[0], poison = np.nan, False
        bad = np.flatnonzero(~np.all(np.isfinite(x), axis=1))
        x[bad] = lu_solve_batched(A[bad], b[bad])
        solved.append(x)
    target[ids] = np.concatenate(solved)
    return ids, target[ids]


class TestIngestAck:
    def test_ack_is_durable_and_sequential(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        assert engine.ingest(0, 1, 4.0) == 0
        assert engine.ingest(2, 3, 2.0) == 1
        assert engine.pending_count == 2
        assert engine.pending_users() == {0, 2}
        kinds = [r.kind for r in engine.wal.replay()]
        assert kinds == ["rating", "rating"]
        engine.close()

    def test_out_of_range_rejected(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        with pytest.raises(ValueError, match="user"):
            engine.ingest(99, 0, 1.0)
        with pytest.raises(ValueError, match="item"):
            engine.ingest(0, 99, 1.0)
        engine.close()

    def test_fresh_directory_guard(self, tmp_path):
        engine, ratings, x, theta = make_engine(tmp_path)
        engine.close()
        with pytest.raises(ValueError, match="already holds a stream"):
            IngestEngine(x, theta, ratings, directory=tmp_path)


class TestFoldIn:
    def test_clean_rows_bit_identical(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        x_before = engine.x.copy()
        theta_before = engine.theta.copy()
        engine.ingest(3, 2, 5.0)
        engine.ingest(3, 7, 1.0)
        result = engine.apply()
        assert not result.noop
        assert set(result.users.tolist()) == {3}
        assert set(result.items.tolist()) == {2, 7}
        clean_users = np.setdiff1d(np.arange(engine.m), result.users)
        clean_items = np.setdiff1d(np.arange(engine.n), result.items)
        assert engine.x[clean_users].tobytes() == x_before[clean_users].tobytes()
        assert (
            engine.theta[clean_items].tobytes()
            == theta_before[clean_items].tobytes()
        )
        engine.close()

    def test_foldin_moves_prediction_toward_rating(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        user, item, rating = 5, 4, 5.0
        before = float(engine.x[user] @ engine.theta[item])
        engine.ingest(user, item, rating)
        engine.apply()
        after = float(engine.x[user] @ engine.theta[item])
        assert abs(after - rating) < abs(before - rating)
        engine.close()

    def test_apply_with_nothing_pending_is_noop(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        result = engine.apply()
        assert result.noop and engine.applies == 0
        assert list_deltas(tmp_path) == []
        engine.close()

    def test_implicit_foldin_finite_and_scoped(self, tmp_path):
        engine, *_ = make_engine(tmp_path, alpha=8.0)
        x_before = engine.x.copy()
        engine.ingest(1, 1, 3.0)
        result = engine.apply()
        assert np.all(np.isfinite(engine.x)) and np.all(np.isfinite(engine.theta))
        clean = np.setdiff1d(np.arange(engine.m), result.users)
        assert engine.x[clean].tobytes() == x_before[clean].tobytes()
        engine.close()

    def test_deltas_compact_at_cadence(self, tmp_path):
        engine, *_ = make_engine(tmp_path, compact_every=2)
        for i, (u, v, r) in enumerate(stream_ops(6, seed=3)):
            engine.ingest(u, v, r)
            if i % 2 == 1:
                engine.apply()
        assert engine.applies == 3 and engine.compactions == 1
        # One delta since the compaction; the chain before it collapsed.
        assert len(list_deltas(tmp_path)) == 1
        engine.close()


class TestChaosHooks:
    def test_torn_append_repairs_then_acks(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        engine.ingest(0, 0, 2.0)
        engine.tear_next_append = True
        health = ServingHealth()
        seq = engine.ingest(1, 1, 3.0, health=health, tick=4)
        assert seq == 1 and engine.torn_writes_repaired == 1
        kinds = [e.kind for e in health.events]
        assert kinds == ["wal.recovered", "ingest.acked"]
        assert [r.seq for r in engine.wal.replay()] == [0, 1]
        engine.close()

    @pytest.mark.parametrize("alpha", [None, 2.0])
    def test_foldin_matches_seed_composition(self, tmp_path, alpha):
        """One apply equals the hand-rolled kernels, poisoned lane included."""
        engine, ratings, x, theta = make_engine(tmp_path, alpha=alpha)
        ops = stream_ops(9, seed=3)
        corpus = ratings.to_scipy().todok()
        for u, v, r in ops:
            engine.ingest(u, v, r)
            corpus[u, v] = r
        corpus = RatingMatrix.from_scipy(corpus.tocsr())
        engine.poison_next_foldin = True
        result = engine.apply()
        cfg = engine.config
        users, user_rows = seed_fold_side(
            corpus, theta, x, {u for u, _v, _r in ops}, cfg, poison=True
        )
        items, item_rows = seed_fold_side(
            corpus.transpose(), x, theta, {v for _u, v, _r in ops}, cfg, poison=False
        )
        assert result.foldin_repairs == 1
        assert np.array_equal(result.users, users)
        assert np.array_equal(result.items, items)
        assert np.array_equal(result.user_rows, user_rows)
        assert np.array_equal(result.item_rows, item_rows)
        assert engine.x.tobytes() == x.tobytes()
        assert engine.theta.tobytes() == theta.tobytes()
        engine.close()

    def test_poisoned_foldin_repaired_before_install(self, tmp_path):
        engine, *_ = make_engine(tmp_path)
        engine.ingest(2, 2, 4.0)
        engine.poison_next_foldin = True
        result = engine.apply()
        assert result.foldin_repairs >= 1
        assert engine.foldin_repairs >= 1
        assert np.all(np.isfinite(engine.x)) and np.all(np.isfinite(engine.theta))
        engine.close()


class TestKillReplay:
    def run_ops(self, engine, ops, start, stop, apply_every=3):
        for i in range(start, stop):
            u, v, r = ops[i]
            engine.ingest(u, v, r)
            if (i + 1) % apply_every == 0:
                engine.apply()
        if stop == len(ops):
            engine.apply()

    def test_resume_is_bit_identical(self, tmp_path):
        ops = stream_ops(14, seed=7)
        kill_at = 8

        full, ratings, *_ = make_engine(tmp_path / "full", compact_every=2)
        self.run_ops(full, ops, 0, len(ops))

        killed, *_ = make_engine(tmp_path / "killed", compact_every=2)
        self.run_ops(killed, ops, 0, kill_at)
        killed.wal.append_torn(0, 0, 3.0)  # power loss mid-append
        del killed

        resumed = IngestEngine.resume(
            tmp_path / "killed",
            ratings,
            config=IngestConfig(compact_every=2, cg=CGConfig(max_iters=8)),
        )
        assert resumed.wal.truncated_bytes > 0
        self.run_ops(resumed, ops, kill_at, len(ops))

        assert resumed.digest == full.digest
        assert resumed.x.tobytes() == full.x.tobytes()
        assert resumed.theta.tobytes() == full.theta.tobytes()
        full.close()
        resumed.close()

    def test_resume_of_quiescent_stream_matches(self, tmp_path):
        ops = stream_ops(6, seed=9)
        engine, ratings, *_ = make_engine(tmp_path, compact_every=3)
        self.run_ops(engine, ops, 0, len(ops))
        digest = engine.digest
        engine.close()
        resumed = IngestEngine.resume(
            tmp_path, ratings, config=IngestConfig(compact_every=3, cg=CGConfig(max_iters=8))
        )
        assert resumed.digest == digest and resumed.pending_count == 0
        resumed.close()

    def test_stats_snapshot_is_json_ready(self, tmp_path):
        import json

        engine, *_ = make_engine(tmp_path)
        engine.ingest(0, 0, 1.0)
        engine.apply()
        stats = engine.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["applies"] == 1 and stats["pending"] == 0
        engine.close()
