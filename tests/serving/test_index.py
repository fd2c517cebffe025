"""IVF retrieval index: build invariants, ball bounds, exactness knob."""

import numpy as np
import pytest

from repro.runtime.arena import Workspace
from repro.serving.batcher import MicroBatcher
from repro.serving.index import (
    DEFAULT_LLOYD_ITERS,
    IndexConfig,
    build_index,
    clustered_catalog,
    default_ncells,
    default_nprobe,
    recall_floor,
)
from repro.serving.queue import Request


def make_catalog(n_users=16, n_items=400, f=8, seed=0, **kw):
    return clustered_catalog(n_users, n_items, f, seed=seed, **kw)


def make_requests(users, k=5):
    return [
        Request(
            request_id=i, user=u, k=k, submitted_tick=0, deadline_tick=10
        )
        for i, u in enumerate(users)
    ]


class TestDefaults:
    def test_default_ncells_is_sqrt(self):
        assert default_ncells(400) == 20
        assert default_ncells(1) == 1
        assert default_ncells(2) == 1
        with pytest.raises(ValueError):
            default_ncells(0)

    def test_default_nprobe_is_ceil_32nd(self):
        assert default_nprobe(1) == 1
        assert default_nprobe(32) == 1
        assert default_nprobe(33) == 2
        assert default_nprobe(512) == 16
        with pytest.raises(ValueError):
            default_nprobe(0)

    def test_recall_floor_shape(self):
        # Exact at the brute-force endpoint, monotone in the ratio,
        # vacuous below a quarter of the cells.
        assert recall_floor(8, 8) == 1.0
        assert recall_floor(9, 8) == 1.0
        assert recall_floor(4, 8) == pytest.approx(0.40)
        assert recall_floor(2, 8) == pytest.approx(0.12)
        assert recall_floor(1, 8) == 0.0
        floors = [recall_floor(p, 64) for p in range(1, 65)]
        assert floors == sorted(floors)
        with pytest.raises(ValueError):
            recall_floor(0, 8)
        with pytest.raises(ValueError):
            recall_floor(1, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IndexConfig(ncells=0)
        with pytest.raises(ValueError):
            IndexConfig(nprobe=0)
        with pytest.raises(ValueError):
            IndexConfig(iters=0)
        with pytest.raises(ValueError):
            IndexConfig(seed=-1)
        with pytest.raises(ValueError):
            IndexConfig(budget=-1)
        assert IndexConfig().as_dict()["iters"] == DEFAULT_LLOYD_ITERS

    def test_clustered_catalog_validation(self):
        with pytest.raises(ValueError):
            clustered_catalog(0, 10, 4)
        with pytest.raises(ValueError):
            clustered_catalog(4, 10, 4, spread=0.0)
        x, theta = clustered_catalog(3, 7, 4, seed=1)
        assert x.shape == (3, 4) and theta.shape == (7, 4)
        assert x.dtype == np.float32 and theta.dtype == np.float32


class TestBuild:
    def test_layout_invariants(self):
        _, theta = make_catalog()
        index = build_index(theta, IndexConfig(seed=3))
        n = theta.shape[0]
        assert index.ncells == default_ncells(n)
        assert np.array_equal(np.sort(index.perm), np.arange(n))
        ptr = index.cell_ptr
        assert ptr[0] == 0 and ptr[-1] == n
        assert np.all(np.diff(ptr) >= 0)
        assert index.theta_perm.tobytes() == theta[index.perm].tobytes()
        assert np.all(index.radii >= 0)
        assert np.array_equal(index.empty_mask, np.diff(ptr) == 0)
        assert np.all(index.radii[index.empty_mask] == 0)

    def test_radii_bound_every_member(self):
        _, theta = make_catalog(n_items=600, seed=5)
        index = build_index(theta, IndexConfig(seed=5))
        cell_of = np.repeat(
            np.arange(index.ncells), np.diff(index.cell_ptr)
        )
        diff = index.theta_perm - index.centroids[cell_of]
        dist = np.sqrt(np.einsum("nf,nf->n", diff, diff))
        assert np.all(dist <= index.radii[cell_of] * (1 + 1e-5) + 1e-5)

    def test_build_is_deterministic(self):
        _, theta = make_catalog(seed=7)
        a = build_index(theta, IndexConfig(seed=7))
        b = build_index(theta, IndexConfig(seed=7))
        for attr in ("centroids", "radii", "perm", "cell_ptr", "theta_perm"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()

    def test_within_cell_order_is_ascending_item_id(self):
        _, theta = make_catalog()
        index = build_index(theta, IndexConfig(seed=0))
        for c in range(index.ncells):
            cell = index.perm[index.cell_ptr[c] : index.cell_ptr[c + 1]]
            assert np.all(np.diff(cell) > 0)

    def test_ncells_clamped_to_catalog(self):
        _, theta = make_catalog(n_items=5)
        index = build_index(theta, IndexConfig(ncells=32))
        assert index.ncells == 5

    def test_budget_below_one_pass_skips(self):
        _, theta = make_catalog(n_items=100)
        assert build_index(theta, IndexConfig(budget=99)) is None
        assert build_index(theta, IndexConfig(budget=0)) is None

    def test_budget_caps_lloyd_iterations(self):
        _, theta = make_catalog(n_items=100)
        index = build_index(theta, IndexConfig(budget=250))
        assert index is not None
        assert index.iters_run <= 2

    def test_nprobe_clamped_and_derived(self):
        _, theta = make_catalog()
        assert build_index(theta, IndexConfig(nprobe=10_000)).nprobe == 20
        derived = build_index(theta, IndexConfig())
        assert derived.nprobe == default_nprobe(derived.ncells)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            build_index(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            build_index(np.zeros((0, 4), dtype=np.float32))

    def test_stats_shape(self):
        _, theta = make_catalog()
        stats = build_index(theta, IndexConfig()).stats()
        assert stats["n_items"] == 400
        assert stats["ncells"] == 20
        assert stats["largest_cell"] >= 400 // 20


class TestSelectCells:
    def test_ball_bound_dominates_members(self):
        # The cell-ranking bound must upper-bound every member's score:
        # that is the premise that makes probing meaningful.
        x, theta = make_catalog(seed=2)
        index = build_index(theta, IndexConfig(seed=2))
        u = x[0]
        bounds = index.centroids @ u + np.sqrt(u @ u) * index.radii
        scores = index.theta_perm @ u
        for c in range(index.ncells):
            lo, hi = index.cell_ptr[c], index.cell_ptr[c + 1]
            if hi > lo:
                assert scores[lo:hi].max() <= bounds[c] * (1 + 1e-5) + 1e-4

    def test_probe_sets_nested_in_nprobe(self):
        x, theta = make_catalog(seed=4)
        index = build_index(theta, IndexConfig(seed=4))
        u = x[1]
        prev: set[int] = set()
        for p in range(1, index.ncells + 1):
            cells = set(index.select_cells(u, p).tolist())
            assert prev <= cells
            prev = cells


class TestProbedServing:
    def test_nprobe_ncells_bit_identical_to_brute(self):
        x, theta = make_catalog(n_users=12, seed=6)
        index = build_index(theta, IndexConfig(seed=6))
        batcher = MicroBatcher()
        requests = make_requests(range(12), k=7)
        brute, _ = batcher.score_batch(x, theta, requests)
        probed, _ = batcher.score_batch(
            x, theta, requests, index=index, nprobe=index.ncells
        )
        assert probed == brute

    def test_recall_monotone_and_exact_on_clusters(self):
        x, theta = make_catalog(n_users=16, n_items=500, seed=8)
        index = build_index(theta, IndexConfig(seed=8))
        batcher = MicroBatcher()
        requests = make_requests(range(16), k=5)
        brute, _ = batcher.score_batch(x, theta, requests)
        want = [frozenset(i for i, _ in row) for row in brute]
        prev = -1.0
        for p in (1, 5, 10, index.ncells):
            got, _ = batcher.score_batch(
                x, theta, requests, index=index, nprobe=p
            )
            recall = float(
                np.mean(
                    [
                        len(frozenset(i for i, _ in g) & w) / len(w)
                        for g, w in zip(got, want)
                    ]
                )
            )
            assert recall >= prev
            prev = recall
        assert prev == 1.0

    def test_per_request_nprobe_overrides_call_default(self):
        x, theta = make_catalog(n_users=4, seed=9)
        index = build_index(theta, IndexConfig(seed=9))
        exact = Request(
            request_id=0, user=0, k=4, submitted_tick=0,
            deadline_tick=10, nprobe=index.ncells,
        )
        batcher = MicroBatcher()
        brute, _ = batcher.score_batch(x, theta, make_requests([0], k=4))
        mixed, _ = batcher.score_batch(
            x, theta, [exact], index=index, nprobe=1
        )
        assert mixed == brute
        assert batcher.brute_routed == 2 and batcher.index_routed == 0

    def test_probed_exclusions_never_returned(self):
        x, theta = make_catalog(n_users=4, seed=10)
        index = build_index(theta, IndexConfig(seed=10))
        batcher = MicroBatcher()
        full, _ = batcher.score_batch(
            x, theta, make_requests([0], k=3), index=index, nprobe=2
        )
        banned = tuple(i for i, _ in full[0])
        request = Request(
            request_id=0, user=0, k=3, submitted_tick=0,
            deadline_tick=10, exclude=banned,
        )
        excluded, _ = batcher.score_batch(
            x, theta, [request], index=index, nprobe=2
        )
        assert not set(banned) & {i for i, _ in excluded[0]}

    def test_probed_poison_row_reported(self):
        x, theta = make_catalog(n_users=4, seed=11)
        index = build_index(theta, IndexConfig(seed=11))
        batcher = MicroBatcher()
        results, bad = batcher.score_batch(
            x, theta, make_requests([0, 1, 2], k=3),
            index=index, nprobe=2, poison_row=1,
        )
        assert bad == [1] and results[1] is None
        assert results[0] is not None and results[2] is not None

    def test_items_scored_is_sublinear(self):
        x, theta = make_catalog(n_users=8, n_items=900, seed=12)
        index = build_index(theta, IndexConfig(seed=12))
        batcher = MicroBatcher()
        requests = make_requests(range(8), k=5)
        batcher.score_batch(x, theta, requests, index=index, nprobe=2)
        assert batcher.index_routed == 8
        assert batcher.items_scored < 8 * 900 / 2

    def test_steady_state_probed_zero_allocations(self):
        x, theta = make_catalog(n_users=8, seed=13)
        index = build_index(theta, IndexConfig(seed=13))
        workspace = Workspace()
        batcher = MicroBatcher(workspace)
        requests = make_requests(range(8), k=4)
        batcher.score_batch(x, theta, requests, index=index, nprobe=3)
        workspace.reset_counters()
        for _ in range(10):
            batcher.score_batch(x, theta, requests, index=index, nprobe=3)
        assert workspace.allocations == 0
        assert workspace.reuses > 0

    def test_varied_users_after_warmup_allocate_nothing(self):
        # Probed candidate counts differ per user; scratch sized from the
        # index (the nprobe largest cells) must not regrow when a later
        # user probes more items than the warm-up users did.
        x, theta = make_catalog(n_users=200, n_items=900, seed=14)
        index = build_index(theta, IndexConfig(seed=14))
        workspace = Workspace()
        batcher = MicroBatcher(workspace)
        warm = make_requests([0], k=5)
        warm.append(Request(1, user=1, k=5, submitted_tick=0, deadline_tick=10, exclude=(0,)))
        for request in warm:
            batcher.score_batch(x, theta, [request], index=index, nprobe=3)
        workspace.reset_counters()
        for u in range(2, 200):
            exclude = (u % 900,) if u % 2 else ()
            request = Request(u, user=u, k=5, submitted_tick=0, deadline_tick=10, exclude=exclude)
            results, bad = batcher.score_batch(x, theta, [request], index=index, nprobe=3)
            assert bad == [] and len(results[0]) == 5
        assert workspace.allocations == 0, workspace.allocations_by_key
        assert batcher.index_routed == 200
