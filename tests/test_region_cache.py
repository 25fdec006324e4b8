"""Tests for the service-lifetime RegionCache and its invalidation.

Covers the cache mechanics (LRU, in-flight dedup, thread safety) and the
end-to-end contract: appending trajectory data through the service drops
cached bounding regions and Con-Index entries, so post-append queries see
the new speed models instead of stale bounds.
"""

from __future__ import annotations

import threading

import pytest

from benchmarks.client_protocol import run_batch
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

    @staticmethod
    def _boom():
        raise RuntimeError("expansion failed")

    def test_invalidate_fences_inflight_compute(self):
        """A value computed from pre-invalidation data must not be
        published into the cache after invalidate() ran mid-compute."""
        cache = RegionCache()
        started = threading.Event()
        release = threading.Event()

        def slow_compute():
            started.set()
            release.wait(5.0)
            return "stale"

        results = []
        thread = threading.Thread(
            target=lambda: results.append(cache.get_or_compute("k", slow_compute))
        )
        thread.start()
        started.wait(5.0)
        cache.invalidate()
        release.set()
        thread.join(5.0)
        # The requester (whose query began pre-invalidation) gets its value,
        # but the cache stays empty for later queries.
        assert results == [("stale", False)]
        assert len(cache) == 0
        assert cache.get_or_compute("k", lambda: "fresh") == ("fresh", False)

    def test_concurrent_requests_compute_once(self):
        cache = RegionCache()
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow_compute():
            calls.append(threading.get_ident())
            started.set()
            release.wait(5.0)
            return "value"

        results = []

        def first():
            results.append(cache.get_or_compute("k", slow_compute))

        def second():
            started.wait(5.0)
            # Arrives while the first thread is still computing.
            results.append(cache.get_or_compute("k", lambda: "other"))

        t1 = threading.Thread(target=first)
        t2 = threading.Thread(target=second)
        t1.start()
        t2.start()
        started.wait(5.0)
        release.set()
        t1.join(5.0)
        t2.join(5.0)
        assert len(calls) == 1
        assert sorted(r for _, r in results) == [False, True]
        assert all(v == "value" for v, _ in results)


class TestDecodedRecordCache:
    def test_threaded_reads_with_tiny_cache(self):
        """The ST-Index decoded-record LRU is shared by batch worker
        threads; a capacity-1 cache under concurrent reads must neither
        crash (hit / evict / move_to_end race) nor corrupt results."""
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
        errors = []

        def hammer():
            try:
                for _ in range(300):
                    for segment_id in segment_ids:
                        assert (
                            index.time_entries(segment_id, slot)
                            == expected[segment_id]
                        )
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors

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
