"""Tests for the service-lifetime RegionCache and its invalidation.

Covers the cache mechanics (LRU, hit/miss counters) and the
end-to-end contract: appending trajectory data through the service drops
cached bounding regions and Con-Index entries, so post-append queries see
the new speed models instead of stale bounds.
"""

from __future__ import annotations

import pytest

from benchmarks.client_protocol import run_batch
from repro.api.client import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.core.query import SQuery
from repro.core.region_cache import RegionCache
from repro.core.service import QueryService
from repro.network.generator import grid_city
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

T = float(day_time(11))


class TestRegionCache:
    def test_compute_once_then_hit(self):
        cache = RegionCache(capacity=4)
        calls = []
        value, reused = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert (value, reused) == ("v", False)
        value, reused = cache.get_or_compute("k", lambda: calls.append(1) or "v2")
        assert (value, reused) == ("v", True)
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = RegionCache(capacity=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert cache.get_or_compute("a", lambda: 99)[1] is True
        assert cache.get_or_compute("b", lambda: 42) == (42, False)

    def test_invalidate_clears(self):
        cache = RegionCache()
        cache.get_or_compute("a", lambda: 1)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get_or_compute("a", lambda: 2) == (2, False)
        assert cache.stats()["invalidations"] == 1

    def test_failed_compute_does_not_poison(self):
        cache = RegionCache()
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", self._boom)
        assert cache.get_or_compute("k", lambda: "ok") == ("ok", False)

    def test_stats_track_size_and_counters(self):
        cache = RegionCache(capacity=2)
        for key in ("a", "b", "a", "c", "b"):
            cache.get_or_compute(key, lambda: key.upper())
        # a, b miss; a hits; c misses and evicts b; b misses and evicts a.
        assert cache.stats() == {
            "size": 2, "capacity": 2, "hits": 1, "misses": 4, "invalidations": 0,
        }
        cache.invalidate()
        assert cache.stats()["size"] == 0
        assert cache.stats()["hits"] == 1  # counters survive invalidation

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            RegionCache(capacity=0)

    @staticmethod
    def _boom():
        raise RuntimeError("expansion failed")


class TestDecodedRecordCache:
    def test_reads_with_tiny_cache(self):
        """With a capacity-1 record memo, repeated reads in any order
        return the same time lists."""
        from repro.core.st_index import STIndex
        from repro.network.generator import grid_city

        network = grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)
        db = TrajectoryDatabase(num_taxis=4, num_days=2)
        segment_ids = sorted(network.segment_ids())[:8]
        for i, segment_id in enumerate(segment_ids):
            db.add(
                MatchedTrajectory(
                    i, i % 4, i % 2,
                    [SegmentVisit(segment_id, T + i, 5.0)],
                )
            )
        db.finalize()
        index = STIndex(network, 300, record_cache_size=1)
        index.build(db)
        slot = index.slot_of(T)
        expected = {
            segment_id: index.time_entries(segment_id, slot)
            for segment_id in segment_ids
        }
        for _ in range(3):
            for segment_id in segment_ids + segment_ids[::-1]:
                assert index.time_entries(segment_id, slot) == expected[segment_id]

    def test_returned_mapping_is_caller_mutable(self):
        """time_entries hands back fresh dict+lists: mutating the return
        value must not corrupt the memoized decoded record."""
        from repro.core.st_index import STIndex
        from repro.network.generator import grid_city

        network = grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)
        db = TrajectoryDatabase(num_taxis=2, num_days=1)
        db.add(MatchedTrajectory(0, 0, 0, [SegmentVisit(0, T, 5.0)]))
        db.finalize()
        index = STIndex(network, 300)
        index.build(db)
        slot = index.slot_of(T)
        first = index.time_entries(0, slot)
        first[0].append((999, 999))
        first[123] = []
        assert index.time_entries(0, slot) == {0: [(0, int(T))]}


def _make_day(route, date, trajectory_id, speed):
    return MatchedTrajectory(
        trajectory_id=trajectory_id, taxi_id=trajectory_id % 4, date=date,
        visits=[
            SegmentVisit(route[i], T + 10 + 30 * i, speed)
            for i in range(len(route))
        ],
    )


class TestAppendInvalidation:
    @pytest.fixture()
    def setup(self):
        network = grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)
        route = [0]
        while len(route) < 6:
            route.append(network.successors(route[-1])[0])
        db = TrajectoryDatabase(num_taxis=4, num_days=2)
        # Day 0: a slow crawl (1.2 m/s) — the Far bound barely moves.
        db.add(_make_day(route, 0, 0, 1.2))
        db.finalize()
        engine = ReachabilityEngine(network, db)
        engine.st_index(300)
        service = QueryService(engine)
        location = network.segment(route[0]).midpoint
        query = SQuery(location, T, 600.0, 0.4)
        return service, route, query

    def test_append_then_query_sees_new_speeds(self, setup):
        service, route, query = setup
        before = run_batch(service, [query])
        assert before.regions_computed > 0
        small_cover = before.results[0].max_region.cover
        # New fast data arrives (12 m/s sweeps the whole corridor per slot).
        touched = service.append_trajectories([_make_day(route, 1, 1, 12.0)])
        assert touched > 0
        assert service.region_cache.stats()["invalidations"] == 1
        after = run_batch(service, [query])
        # The cached region was NOT reused: the bounds were recomputed
        # from the post-append speed bounds and grew.
        assert after.regions_computed > 0
        large_cover = after.results[0].max_region.cover
        assert small_cover < large_cover
        assert set(route) <= large_cover

    def test_stale_cache_without_invalidation_would_lie(self, setup):
        """Control: bypassing the service's append (mutating the indexes
        directly) leaves the stale region in the cache — which is exactly
        why QueryService.append_trajectories must invalidate."""
        service, route, query = setup
        before = run_batch(service, [query])
        small_cover = before.results[0].max_region.cover
        engine = service.engine
        engine.database.add(_make_day(route, 1, 1, 12.0))
        # No service-level append, no invalidation: the next batch reuses
        # the pre-append region.
        stale = run_batch(service, [query])
        assert stale.regions_reused > 0
        assert stale.results[0].max_region.cover == small_cover

    def test_engine_level_append_invalidates_every_service(self, setup):
        """Data changes made directly on the engine (not through one
        particular service) must still drop every service's region cache
        — the caches registered themselves as engine data-change hooks."""
        service, route, query = setup
        other = QueryService(service.engine)
        run_batch(service, [query])
        run_batch(other, [query])
        service.engine.append_trajectories([_make_day(route, 1, 1, 12.0)])
        assert service.region_cache.stats()["invalidations"] == 1
        assert other.region_cache.stats()["invalidations"] == 1
        after = run_batch(service, [query])
        assert after.regions_computed > 0
        assert after.regions_reused == 0

    def test_fresh_clients_leave_no_pile_of_dead_hooks(self, setup):
        """Every service registers a hook; a dead service's hook is
        pruned at the next registration, not kept until a data change."""
        engine = setup[0].engine
        for _ in range(100):
            ReachabilityClient(engine).close()
        hooks = engine._data_change_hooks
        assert sum(hook() is None for hook in hooks) <= 1
        assert len(hooks) <= 2  # the fixture's service and the last one

    def test_rebuild_indexes_invalidates(self, setup):
        service, route, query = setup
        first = run_batch(service, [query])
        assert first.regions_computed > 0
        service.engine.drop_indexes()
        assert service.region_cache.stats()["invalidations"] == 1
        second = run_batch(service, [query])
        assert second.regions_computed > 0
        assert second.regions_reused == 0
        assert second.results[0].segments == first.results[0].segments


class TestSpeedNeutralAppend:
    """The Con-Index and the bounding regions derive from the speed model
    alone: an append that leaves it alone keeps them, one that moves it
    (directly on the database or through the append) drops them."""

    @pytest.fixture()
    def opened(self, test_dataset, tmp_path):
        from repro.io.persist import open_store, save_store

        builder = ReachabilityEngine(test_dataset.network, test_dataset.database)
        engine = open_store(save_store(builder, tmp_path / "store", 300))
        route = [0]
        while len(route) < 6:
            route.append(test_dataset.network.successors(route[-1])[0])
        queries = [
            SQuery(test_dataset.network.segment(segment).midpoint, T, 900.0, 0.2)
            for segment in route[::2]
        ]
        return QueryService(engine), route, queries

    def test_speed_neutral_append_keeps_entries_and_regions(self, opened):
        service, route, queries = opened
        engine = service.engine
        first = run_batch(service, queries)
        assert first.regions_computed > 0
        expansions = engine.con_index(300).expansions
        service.append_trajectories([_make_day(route, 1, 10**6, 12.0)], update_database=False)
        assert service.region_cache.stats()["invalidations"] == 0
        assert engine.con_index(300).expansions == expansions
        kept = run_batch(service, queries)
        assert kept.regions_computed == 0
        assert kept.regions_reused == first.regions_computed + first.regions_reused
        assert engine.con_index(300).expansions == expansions
        # The reference: every Con-Index entry and region derived afresh
        # over the same (appended) time lists.
        st_index = engine.st_index(300)
        engine.drop_indexes()
        engine.install_st_index(300, st_index)
        fresh = run_batch(service, queries)
        assert fresh.regions_reused == 0 and engine.con_index(300).expansions > 0
        for got, want in zip(kept.results, fresh.results):
            assert got.segments == want.segments
            assert got.probabilities == want.probabilities

    @pytest.mark.parametrize("path", ["database-add-first", "default-append"])
    def test_an_append_that_moves_the_speed_model_invalidates(self, opened, path):
        service, route, queries = opened
        engine = service.engine
        before = run_batch(service, queries)
        fast = _make_day(route, 1, 10**6, 12.0)
        if path == "database-add-first":
            engine.database.add(fast)
            service.append_trajectories([fast], update_database=False)
        else:
            service.append_trajectories([fast])
        assert service.region_cache.stats()["invalidations"] == 1
        assert engine.con_index(300).num_entries == 0
        after = run_batch(service, queries)
        assert after.regions_reused == 0
        grown = [
            b.max_region.cover < a.max_region.cover
            for b, a in zip(before.results, after.results)
        ]
        assert any(grown)
