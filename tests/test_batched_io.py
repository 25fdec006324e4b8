"""Batched zero-copy I/O layer: accounting-equivalence tests.

The contract under test (ISSUE 5): the batched read path — extent
pointers, ``BufferPool.get_pages``, the
ST-Index wave gathers — charges *exactly* what the preserved scalar
read path (a sequential loop of ``PageStore.read`` calls) charges:
same ``DiskStats`` (page reads/writes, bytes, pool hits/misses/
evictions), same payloads.  Plus group-commit write amplification,
cross-store appends on a shared disk, and weakref hygiene in
``SimulatedDisk``.
"""

import gc
import itertools
import random
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.st_index_build import entry_keys
from repro.core.st_index import STIndex
from repro.io.persist import PersistFormatError, open_store, save_store
from repro.storage.disk import SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer


def make_records(seed: int, count: int, max_size: int = 300) -> list[bytes]:
    rng = random.Random(seed)
    return [
        bytes(rng.randrange(256) for _ in range(rng.randrange(max_size + 1)))
        for _ in range(count)
    ]


class TestGroupCommit:
    def test_build_write_amplification(self):
        """Appending charges ~one page_write per page, not per record."""
        page_size = 64
        payloads = make_records(3, 200, max_size=50)
        disk = SimulatedDisk(page_size=page_size)
        store = PageStore(disk)
        for payload in payloads:
            store.append(payload)
        store.flush()
        total = sum(len(p) for p in payloads)
        floor = -(-total // page_size)  # ceil(bytes / page_size)
        assert disk.stats.page_writes >= floor
        # Old behavior charged >= one write per record (200 here); group
        # commit stays within a whisker of the packed-page floor (the
        # slack covers records that straddle a boundary).
        assert disk.stats.page_writes <= floor + 2
        assert disk.stats.page_writes < len(payloads) // 2

    def test_st_index_build_write_amplification(self, engine):
        """An ST-Index build charges ≈ ceil(bytes/page_size) page writes."""
        st_index = STIndex(engine.network, 300)
        st_index.build(engine.database)
        stats = st_index.disk.stats
        page_size = st_index.disk.page_size
        floor = -(-stats.bytes_written // page_size)
        assert stats.page_writes >= floor
        # The only slack over the packed-page floor is the final tail
        # flush of the group commit.
        assert stats.page_writes <= floor + 2
        assert stats.page_writes < st_index.stats.num_entries

    def test_flush_is_idempotent(self):
        disk = SimulatedDisk(page_size=32)
        store = PageStore(disk)
        store.append(b"abc")
        store.flush()
        writes = disk.stats.page_writes
        store.flush()
        assert disk.stats.page_writes == writes

    def test_dirty_tail_read_flushes_first(self):
        disk = SimulatedDisk(page_size=32)
        store = PageStore(disk)
        ptr = store.append(b"unflushed tail bytes")
        assert store.read(ptr) == b"unflushed tail bytes"
        assert disk.stats.page_writes == 1  # the read forced the commit


class TestExtentPointers:
    def test_pointer_is_contiguous_extent(self):
        disk = SimulatedDisk(page_size=16)
        store = PageStore(disk)
        ptr = store.append(bytes(range(100)))
        assert ptr.num_pages == -(-100 // 16) + (1 if ptr.offset else 0)
        assert ptr.page_ids == tuple(
            range(ptr.first_page, ptr.first_page + ptr.num_pages)
        )

    def test_interleaved_stores_stay_contiguous(self):
        """Two stores on one disk: spilling records restart on fresh extents."""
        disk = SimulatedDisk(page_size=16)
        store_a = PageStore(disk)
        store_b = PageStore(disk)
        payloads = make_records(11, 40, max_size=60)
        pointers = []
        for i, payload in enumerate(payloads):
            store = store_a if i % 2 == 0 else store_b
            pointers.append((store, store.append(payload)))
        store_a.flush()
        store_b.flush()
        for (store, ptr), payload in zip(pointers, payloads):
            assert store.read(ptr) == payload

    def test_empty_record_still_charges_its_page(self):
        disk = SimulatedDisk(page_size=16)
        store = PageStore(disk)
        ptr = store.append(b"")
        store.flush()
        before = disk.snapshot()
        assert store.read(ptr) == b""
        assert (disk.snapshot() - before).page_reads == 1


class TestBatchedPool:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_get_pages_equals_get_page_loop(self, seed):
        """Batch charging == per-page loop, under eviction pressure too."""
        rng = random.Random(seed)
        capacity = rng.choice([0, 3, 8, 32])
        d1 = SimulatedDisk(page_size=8)
        d2 = SimulatedDisk(page_size=8)
        num_pages = 20
        for disk in (d1, d2):
            disk.allocate(num_pages)
            for page in range(num_pages):
                disk.write_page(page, bytes([page]) * (page % 9))
        p1 = BufferPool(d1, capacity=capacity)
        p2 = BufferPool(d2, capacity=capacity)
        for _ in range(rng.randrange(1, 8)):
            batch = [rng.randrange(num_pages) for _ in range(rng.randrange(1, 25))]
            for page in batch:
                p1.get_page(page)
            p2.get_pages(batch)
            assert (p1.hits, p1.misses, p1.evictions) == (
                p2.hits, p2.misses, p2.evictions,
            )
            assert d1.stats == d2.stats

    def test_a_full_pool_evicts_its_least_recently_used_page(self):
        disk = SimulatedDisk(page_size=8)
        disk.allocate(8)
        pool = BufferPool(disk, capacity=3)
        pool.get_pages([0, 2, 1])
        pool.get_page(0)  # 2 is now the least recently used
        pool.get_page(4)  # evicts 2
        assert (pool.hits, pool.misses, pool.evictions) == (1, 4, 1)
        pool.get_pages([0, 1, 4])
        assert (pool.hits, pool.misses, pool.evictions) == (4, 4, 1)
        pool.get_page(2)  # evicts 0
        assert (pool.misses, pool.evictions) == (5, 2)
        assert disk.stats.page_reads == 5

    def test_snapshot_sums_each_pools_counters(self):
        disk = SimulatedDisk(page_size=8)
        disk.allocate(6)
        first = BufferPool(disk, capacity=2)
        second = BufferPool(disk, capacity=4)
        first.get_pages([0, 1, 2, 0])  # 4 misses, 2 evictions
        second.get_pages([3, 3, 4])  # 1 hit, 2 misses
        stats = disk.snapshot()
        assert (stats.pool_hits, stats.pool_misses, stats.pool_evictions) == (
            first.hits + second.hits,
            first.misses + second.misses,
            first.evictions + second.evictions,
        ) == (1, 6, 2)
        assert stats.page_reads == 6


class TestDiskWeakrefHygiene:
    def test_snapshot_prunes_dead_pools(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        disk.write_page(page, b"x")
        pool = BufferPool(disk, capacity=4)
        pool.get_page(page)
        assert disk.snapshot().pool_misses == 1
        del pool
        gc.collect()
        stats = disk.snapshot()
        assert stats.pool_misses == 0  # retired pool no longer counted
        assert disk._pools == []  # and its weakref is gone

    def test_reattach_does_not_double_count(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        disk.write_page(page, b"x")
        pool = BufferPool(disk, capacity=4)
        disk.attach_pool(pool)  # second attach must be a no-op
        pool.get_page(page)
        assert disk.snapshot().pool_misses == 1
        assert len(disk._pools) == 1

    def test_retired_pools_do_not_accumulate(self):
        disk = SimulatedDisk()
        disk.allocate()
        disk.write_page(0, b"x")
        for _ in range(50):
            BufferPool(disk, capacity=2).get_page(0)
        gc.collect()
        disk.snapshot()
        assert len(disk._pools) <= 1


class TestConcurrentAppends:
    def test_allocate_after_is_atomic_check_and_extend(self):
        disk = SimulatedDisk(page_size=16)
        first = disk.allocate()
        extended = disk.allocate_after(first, 2)
        assert extended == first + 1  # still last -> contiguous extent
        other = disk.allocate()
        assert disk.allocate_after(extended + 1, 1) is None  # no longer last
        assert disk.allocate_after(other, 1) == other + 1

    def test_threaded_cross_store_appends_round_trip(self):
        """Stores sharing a disk: racing spills never corrupt an extent."""
        disk = SimulatedDisk(page_size=32)
        stores = [PageStore(disk) for _ in range(3)]
        barrier = threading.Barrier(3)
        results: list[list[tuple[PageStore, RecordPointer, bytes]]] = [
            [] for _ in range(3)
        ]

        def appender(worker: int):
            rng = random.Random(100 + worker)
            store = stores[worker]
            barrier.wait()
            for _ in range(150):
                # Mostly spilling records, to exercise the extend path.
                payload = bytes([worker]) * rng.randrange(20, 120)
                results[worker].append((store, store.append(payload), payload))

        threads = [
            threading.Thread(target=appender, args=(w,)) for w in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for store in stores:
            store.flush()
        for worker_results in results:
            for store, pointer, payload in worker_results:
                assert store.read(pointer) == payload

class TestConIndexLazyEntries:
    def test_evicted_entries_are_recomputed_equal(self, engine, monkeypatch):
        """Re-reading entries evicted from a tiny entry LRU recomputes
        them, equal to the first build and counted in ``expansions``; the
        engine disk is never touched."""
        from repro.core import con_index
        from repro.core.con_index import ConnectionIndex

        monkeypatch.setattr(con_index, "ENTRY_CACHE_SIZE", 4)
        con = ConnectionIndex(engine.network, engine.database, 300)
        keys = [(sid, 130) for sid in sorted(engine.network.segment_ids())[:12]]
        pages = engine.disk.num_pages
        first = [(con.entry(*key, "far"), con.entry(*key, "far_rev")) for key in keys]
        again = [(con.entry(*key, "far"), con.entry(*key, "far_rev")) for key in keys]
        assert all(
            np.array_equal(a, b) for pair, other in zip(first, again) for a, b in zip(pair, other)
        )
        assert con.num_entries == 4
        assert con.expansions == 4 * len(keys)
        assert engine.disk.num_pages == pages


class TestGatherMemoInvalidation:
    @pytest.fixture()
    def index(self, engine) -> STIndex:
        """A private built index — these tests append, so the shared
        session engine's index must stay untouched."""
        fresh = STIndex(engine.network, 300)
        fresh.build(engine.database)
        return fresh

    def _one_trajectory(self, segment_id: int, trajectory_id: int):
        from repro.trajectory.model import MatchedTrajectory, SegmentVisit

        return MatchedTrajectory(
            trajectory_id=trajectory_id,
            taxi_id=1,
            date=0,
            visits=[
                SegmentVisit(segment_id=segment_id, time_s=650.0, speed_mps=5.0)
            ],
        )

    def test_append_invalidates_window_gathers(self, index):
        segment_id = entry_keys(index)[0][0]
        plan = index.window_plan(600.0, 1200.0)
        before = index.gather_window_columns((segment_id,), plan)[0]
        index.append_trajectories([self._one_trajectory(segment_id, 777_001)])
        after = index.gather_window_columns((segment_id,), plan)[0]
        assert after.size == before.size + 1


def per_entry(columns) -> list[tuple[list[int], int, list[int]]]:
    """A gather's columns as one ``(keys, records, page ids)`` per requested segment."""
    keys, key_len, records, pages, page_len = columns
    assert len(key_len) == len(records) == len(page_len)
    assert len(keys) == sum(key_len) and len(pages) == sum(page_len)
    key_at, page_at = [0, *itertools.accumulate(key_len)], [0, *itertools.accumulate(page_len)]
    return [
        (keys[key_at[i] : key_at[i + 1]].tolist(), int(records[i]),
         pages[page_at[i] : page_at[i + 1]].tolist())
        for i in range(len(key_len))
    ]


def held(index: STIndex) -> int:
    """Entries the window-gather memo holds, counted from its plans: a
    memoized plan's segments, one for a plan seen once."""
    count = sum(1 if plan is None else plan.entries for plan in index._window_gathers.values())
    assert count == index._gathered_entries
    return count


class TestGatherMemoAccounting:
    def test_memo_hit_equals_miss_equals_memo_off(self, engine):
        """The window-gather memo is the index's one cache, and it only
        skips work: a plan's first gather (not memoized), its second (the
        memo's misses), its third (a memo hit) and a memo-less index return
        the same key, record and page-id columns, so charging those gives
        the same counters — also for a wave that names one segment twice.
        The gather itself charges nothing."""
        shared = engine.st_index(300)
        _, slot = entry_keys(shared)[0]
        in_slot = sorted(s for s, t in entry_keys(shared) if t == slot)
        wave = [in_slot[0], in_slot[-1], in_slot[0], max(shared.network.segment_ids()) + 1]
        runs = []
        for size in (4096, 0):
            index = STIndex(engine.network, 300, record_cache_size=size)
            index.build(engine.database)
            assert [
                name for name, value in vars(index).items()
                if isinstance(value, OrderedDict)
            ] == ["_window_gathers"]
            # Boundary slot on the left, whole slot on the right.
            plan = index.window_plan(slot * 300.0 + 40.0, (slot + 2) * 300.0)
            calls = []
            for want in (1, 4, 4):
                before = index.disk.snapshot()
                columns = index.gather_window_columns(wave, plan)
                assert index.disk.snapshot() == before
                index.pool.get_pages(columns[3])
                calls.append((per_entry(columns), index.disk.snapshot() - before))
                # Seen once, the plan is one entry; then one entry per
                # occurrence of a missed id: the repeat is held twice.
                assert held(index) == (want if size else 0)
            runs.append(calls)
        (first, on_miss, on_hit), (off_first, off_second, off_third) = runs
        assert (first, on_miss, on_hit) == (off_first, off_second, off_third)
        assert first[0] == on_miss[0] == on_hit[0]
        entries, _ = on_miss
        assert entries[0] == entries[2] and entries[0][0] and entries[3] == ([], 0, [])
        records = sum(records for _, records, _ in entries)
        assert records >= 3 and sum(len(pages) for _, _, pages in entries) >= records

    def test_unknown_segment_gets_an_empty_entry(self, engine):
        """A segment id the index never saw is an empty entry in place,
        alone, between known ones, on a memo hit and with the memo off."""
        shared = engine.st_index(300)
        known, slot = entry_keys(shared)[0]
        unknown = max(shared.network.segment_ids()) + 7
        plan = shared.window_plan(slot * 300.0, (slot + 1) * 300.0)
        for size in (4096, 0):
            index = STIndex(engine.network, 300, record_cache_size=size)
            index.build(engine.database)
            assert per_entry(index.gather_window_columns([unknown], plan)) == [([], 0, [])]
            for _ in range(2):
                entries = per_entry(index.gather_window_columns([known, unknown, known], plan))
                assert entries[1] == ([], 0, []) and entries[0] == entries[2]
                assert entries[0][1] >= 1 and entries[0][2]

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_small_memo_holds_at_most_its_cap(self, engine, size):
        """Many plans through a memo of ``size`` segments, each wave wider
        than the cap once: after every gather the memo holds at most
        ``size`` segments, and every gather equals a memo-off index's."""
        shared = engine.st_index(300)
        segments = sorted({segment for segment, _ in entry_keys(shared)})[:12]
        small, off = (STIndex(engine.network, 300, record_cache_size=cap) for cap in (size, 0))
        small.build(engine.database)
        off.build(engine.database)
        plans = [
            small.window_plan(start, start + duration)
            for start in (600.0, 3640.0, 40000.0) for duration in (300.0, 900.0)
        ]
        waves = [segments[:1], segments[:2], segments, segments[3:5] + segments[:1]]
        for _ in range(2):
            for plan in plans:
                for wave in waves:
                    got = per_entry(small.gather_window_columns(wave, plan))
                    assert got == per_entry(off.gather_window_columns(wave, plan))
                    assert held(small) <= size
        assert not off._window_gathers

    def test_memo_keeps_plans_within_the_cap(self, engine):
        """Plans that fit stay and are served from the memo; the least
        recently used plan leaves first when the next one would overflow,
        a seen-once plan counting one entry."""
        shared = engine.st_index(300)
        segments = sorted({segment for segment, _ in entry_keys(shared)})[:4]
        index = STIndex(engine.network, 300, record_cache_size=9)
        index.build(engine.database)
        first, second, third = (index.window_plan(s, s + 600.0) for s in (600.0, 3600.0, 7200.0))
        for plan in (first, second, first, second, third):
            index.gather_window_columns(segments, plan)
        assert list(index._window_gathers) == [first, second, third] and held(index) == 9
        index.gather_window_columns(segments, third)
        assert list(index._window_gathers) == [second, third] and held(index) == 8
        misses = gather_misses(index)
        for plan in (second, third):
            index.gather_window_columns(segments, plan)
        assert misses == [] and held(index) == 8

    def test_first_gather_holds_no_entries(self, engine):
        """A plan's first gather is served from the misses and only remembers
        the plan; its second starts the memo, its third is served from it."""
        shared = engine.st_index(300)
        segments = sorted({segment for segment, _ in entry_keys(shared)})[:5]
        index = STIndex(engine.network, 300)
        index.build(engine.database)
        plan = index.window_plan(600.0, 1500.0)
        misses = gather_misses(index)
        got = [per_entry(index.gather_window_columns(segments, plan))]
        assert index._window_gathers == OrderedDict({plan: None}) and held(index) == 1
        got.append(per_entry(index.gather_window_columns(segments, plan)))
        assert index._window_gathers[plan].entries == held(index) == 5
        got.append(per_entry(index.gather_window_columns(segments[::-1], plan)))
        assert [len(ids) for ids in misses] == [5, 5]
        assert got[0] == got[1] == got[2][::-1]

    def test_seen_once_plans_stay_within_the_cap(self, engine):
        """Plans seen once fill a memo of 3 entries and leave least recently
        used first, as memoized ones do; a second sighting of a plan that
        already left is its first again."""
        shared = engine.st_index(300)
        segment = sorted({segment for segment, _ in entry_keys(shared)})[:1]
        index = STIndex(engine.network, 300, record_cache_size=3)
        index.build(engine.database)
        plans = [index.window_plan(s, s + 600.0) for s in (600.0, 3600.0, 7200.0, 9000.0)]
        for plan in plans:
            index.gather_window_columns(segment, plan)
            assert held(index) <= 3
        assert list(index._window_gathers) == plans[1:]
        index.gather_window_columns(segment, plans[1])  # its second: memoized
        index.gather_window_columns(segment, plans[0])  # left: seen once again
        assert list(index._window_gathers) == [plans[3], plans[1], plans[0]]
        assert [index._window_gathers[plan] is None for plan in plans[:2]] == [True, False]
        assert held(index) == 3

    def test_append_clears_seen_once_plans(self, engine):
        """An append forgets seen-once plans with the memoized ones, so a
        plan's next gather is its first."""
        shared = engine.st_index(300)
        segment = sorted({segment for segment, _ in entry_keys(shared)})[:1]
        index = STIndex(engine.network, 300)
        index.build(engine.database)
        seen, memoized = (index.window_plan(s, s + 600.0) for s in (600.0, 3600.0))
        for plan in (seen, memoized, memoized):
            index.gather_window_columns(segment, plan)
        assert held(index) == 2
        index.append_trajectories([])
        assert not index._window_gathers and held(index) == 0
        index.gather_window_columns(segment, memoized)
        assert index._window_gathers == OrderedDict({memoized: None})


def gather_misses(index: STIndex) -> list:
    """The ids of every gather ``index`` serves from its misses from now on."""
    calls, gather = [], index._gather_misses

    def spy(segment_ids, plan):
        calls.append(segment_ids.tolist())
        return gather(segment_ids, plan)

    index._gather_misses = spy
    return calls


class TestSTIndexPersistence:
    """A built ST-Index through its one persisted form, the store bundle."""

    @pytest.fixture()
    def store(self, engine, tmp_path):
        return save_store(engine, tmp_path / "store", 300)

    def test_round_trip_serves_identical_records(self, engine, store, tmp_path):
        index = engine.st_index(300)
        reopened = open_store(store)
        loaded = reopened.st_index(300)
        assert loaded.delta_t_s == index.delta_t_s
        assert loaded.stats.num_entries == index.stats.num_entries
        # Stable under repeated cycles: reloading must not grow the disk
        # (the restored store opens its tail lazily, on first append).
        again = open_store(save_store(reopened, tmp_path / "store2", 300))
        assert again.disk.num_pages == loaded.disk.num_pages
        keys = entry_keys(index)
        assert entry_keys(loaded) == keys
        for segment_id, slot in keys[:50]:
            assert loaded.time_entries(segment_id, slot) == index.time_entries(
                segment_id, slot
            )

    def test_loaded_index_charges_reads(self, store):
        loaded = open_store(store).st_index(300)
        (segment_id, slot) = entry_keys(loaded)[0]
        before = loaded.disk.snapshot()
        loaded.time_entries(segment_id, slot)
        diff = loaded.disk.snapshot() - before
        assert diff.pool_hits + diff.pool_misses >= 1

    def test_loaded_index_accepts_appends(self, store):
        from repro.trajectory.model import MatchedTrajectory, SegmentVisit

        loaded = open_store(store).st_index(300)
        segment_id = entry_keys(loaded)[0][0]
        trajectory = MatchedTrajectory(
            trajectory_id=999_999,
            taxi_id=1,
            date=0,
            visits=[
                SegmentVisit(segment_id=segment_id, time_s=600.0, speed_mps=5.0)
            ],
        )
        touched = loaded.append_trajectories([trajectory])
        assert touched == 1
        entries = loaded.time_entries(segment_id, loaded.slot_of(600.0))
        assert any(
            trajectory_id == 999_999
            for visits in entries.values()
            for trajectory_id, _ in visits
        )

    def test_corrupt_pointer_geometry_rejected(self, store):
        import numpy as np

        with np.load(store / "directory.npz") as data:
            fields = {name: data[name] for name in data.files}
        fields["dir_num_pages"] = fields["dir_num_pages"].copy()
        fields["dir_num_pages"][0] = 0  # extent claiming zero pages
        np.savez_compressed(store / "directory.npz", **fields)
        with pytest.raises(
            PersistFormatError, match="outside the persisted page range"
        ):
            open_store(store)
