"""Tests for the simulated disk, page store, buffer pool and codecs."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference.buffer_pool import LRUModel

from repro.storage import disk as disk_module
from repro.storage.backends import FileBackedDisk
from repro.storage.disk import DiskError, DiskStats, SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer
from repro.storage.serialization import (
    SerializationError,
    decode_append_delta,
    encode_append_delta,
)


def scalar_varint(value: int) -> bytes:
    """One LEB128 unsigned varint, a byte at a time (the reference the
    vectorized journal encoder is checked against)."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if not value:
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


class TestSimulatedDisk:
    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            SimulatedDisk(page_size=0)

    def test_allocate_does_not_charge(self):
        disk = SimulatedDisk()
        disk.allocate()
        assert disk.stats.page_reads == 0
        assert disk.stats.page_writes == 0

    def test_write_read_roundtrip(self):
        disk = SimulatedDisk(page_size=64)
        page = disk.allocate()
        disk.write_page(page, b"hello")
        assert disk.read_page(page) == b"hello"
        assert disk.stats.page_writes == 1
        assert disk.stats.page_reads == 1
        assert disk.stats.bytes_written == 5
        assert disk.stats.bytes_read == 5

    def test_oversized_payload_rejected(self):
        disk = SimulatedDisk(page_size=8)
        page = disk.allocate()
        with pytest.raises(DiskError):
            disk.write_page(page, b"x" * 9)

    def test_bad_page_id(self):
        disk = SimulatedDisk()
        with pytest.raises(DiskError):
            disk.read_page(0)

    def test_read_io_ms_prices_reads_at_the_constant(self, monkeypatch):
        assert disk_module.read_io_ms(3) == 3 * 8.0
        monkeypatch.setattr(disk_module, "READ_LATENCY_MS", 5.0)
        assert disk_module.read_io_ms(3) == 3 * 5.0

    def test_snapshot_diff(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        disk.write_page(page, b"a")
        before = disk.snapshot()
        disk.read_page(page)
        diff = disk.snapshot() - before
        assert diff.page_reads == 1
        assert diff.page_writes == 0

    def test_reset(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        disk.write_page(page, b"a")
        reset_stats(disk)
        assert disk.stats == DiskStats()


def reset_stats(disk: SimulatedDisk) -> None:
    """Zero ``disk``'s counters, under its lock as its writers count."""
    with disk._lock:
        disk.stats = DiskStats()


class TestPageStore:
    def test_small_record_roundtrip(self):
        store = PageStore(SimulatedDisk(page_size=32))
        ptr = store.append(b"hello world")
        assert store.read(ptr) == b"hello world"

    def test_record_spanning_pages(self):
        store = PageStore(SimulatedDisk(page_size=16))
        payload = bytes(range(100))
        ptr = store.append(payload)
        assert len(ptr.page_ids) >= 6
        assert store.read(ptr) == payload

    def test_many_records_roundtrip(self):
        store = PageStore(SimulatedDisk(page_size=64))
        pointers = [
            store.append(bytes([i]) * (i % 150 + 1)) for i in range(100)
        ]
        for i, ptr in enumerate(pointers):
            assert store.read(ptr) == bytes([i]) * (i % 150 + 1)

    def test_read_charges_page_chain(self):
        disk = SimulatedDisk(page_size=16)
        store = PageStore(disk)
        ptr = store.append(b"z" * 50)  # spans 4 pages
        before = disk.snapshot()
        store.read(ptr)
        assert (disk.snapshot() - before).page_reads == len(ptr.page_ids)

    @pytest.mark.parametrize("shape", [tuple, lambda row: RecordPointer(*row)])
    def test_ensure_committed_tests_the_extent_not_membership(self, shape):
        store = PageStore(SimulatedDisk(page_size=32))
        store.append(b"x" * 40)  # pages 0-1; page 1 is the dirty tail
        assert (store._tail_page_id, store._dirty) == (1, True)
        # Offset and length equal the tail's page id, the extent misses it.
        store.ensure_committed([shape((0, 1, 1, 1))])
        assert store._dirty
        # The extent covers the tail, no field equals its page id.
        store.ensure_committed([shape((0, 2, 5, 7))])
        assert not store._dirty

    def test_empty_record(self):
        store = PageStore(SimulatedDisk(page_size=16))
        ptr = store.append(b"")
        assert store.read(ptr) == b""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=300), min_size=1, max_size=40),
           st.integers(8, 256))
    def test_roundtrip_property(self, payloads, page_size):
        store = PageStore(SimulatedDisk(page_size=page_size))
        pointers = [store.append(p) for p in payloads]
        for payload, ptr in zip(payloads, pointers):
            assert store.read(ptr) == payload


class TestBufferPool:
    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(SimulatedDisk(), capacity=-1)

    def test_cache_hit_avoids_disk(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate()
        disk.write_page(page, b"data")
        pool.get_page(page)
        reads_after_first = disk.stats.page_reads
        pool.get_page(page)
        assert disk.stats.page_reads == reads_after_first
        assert pool.hits == 1 and pool.misses == 1

    def test_zero_capacity_never_caches(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=0)
        page = disk.allocate()
        disk.write_page(page, b"x")
        pool.get_page(page)
        pool.get_page(page)
        assert disk.stats.page_reads == 2

    def test_lru_eviction(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=2)
        pages = [disk.allocate() for _ in range(3)]
        for p in pages:
            disk.write_page(p, b"p")
        pool.get_page(pages[0])
        pool.get_page(pages[1])
        pool.get_page(pages[2])  # evicts pages[0]
        before = disk.stats.page_reads
        pool.get_page(pages[0])
        assert disk.stats.page_reads == before + 1

    def test_invalidate_single_and_all(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=4)
        page = disk.allocate()
        disk.write_page(page, b"x")
        pool.get_page(page)
        pool.invalidate(page)
        pool.get_page(page)
        assert pool.misses == 2
        pool.invalidate()
        pool.get_page(page)
        assert pool.misses == 3

    def test_eviction_counter(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=2)
        pages = [disk.allocate() for _ in range(3)]
        for p in pages:
            disk.write_page(p, b"p")
        for p in pages:
            pool.get_page(p)
        assert pool.evictions == 1
        pool.get_page(pages[0])  # evicted above -> miss + second eviction
        assert pool.evictions == 2

    def test_snapshot_aggregates_pool_counters(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=1)
        pages = [disk.allocate() for _ in range(2)]
        for p in pages:
            disk.write_page(p, b"p")
        before = disk.snapshot()
        pool.get_page(pages[0])
        pool.get_page(pages[0])
        pool.get_page(pages[1])  # evicts pages[0]
        diff = disk.snapshot() - before
        assert diff.pool_hits == 1
        assert diff.pool_misses == 2
        assert diff.pool_evictions == 1
        assert diff.pool_hit_rate == pytest.approx(1 / 3)

    def test_pagestore_read_through_pool(self):
        disk = SimulatedDisk(page_size=16)
        store = PageStore(disk)
        ptr = store.append(b"q" * 40)
        pool = BufferPool(disk, capacity=8)
        store.read(ptr, pool=pool)
        reads = disk.stats.page_reads
        assert store.read(ptr, pool=pool) == b"q" * 40
        assert disk.stats.page_reads == reads  # fully cached


class TestExtentBytes:
    """The uncharged batch read: records as columns, bytes back to back."""

    PAGE = 32

    @classmethod
    def records(cls, disk):
        """Records of two stores sharing ``disk``, so some neighbours are
        adjacent on disk and some are not; a few are empty."""
        stores = [PageStore(disk), PageStore(disk)]
        rng = random.Random(7)
        pointers = [
            stores[rng.randrange(2)].append(bytes([i]) * rng.choice([0, 4, 20, 50, 130]))
            for i in range(40)
        ]
        for store in stores:
            store.flush()
        return pointers

    @staticmethod
    def columns(batch):
        return [p.first_page for p in batch], [p.offset for p in batch], [p.length for p in batch]

    def test_batch_equals_record_by_record(self):
        disk = SimulatedDisk(page_size=self.PAGE)
        pointers = self.records(disk)
        before = disk.stats.copy()
        rng = random.Random(3)
        for size in (0, 1, 2, 7, 25, 40):
            batch = rng.sample(pointers, size)
            if rng.random() < 0.5:  # disk order: most neighbours adjacent
                batch.sort(key=lambda p: (p.first_page, p.offset))
            expected = b"".join(disk.extent_bytes(*self.columns([p])) for p in batch)
            assert disk.extent_bytes(*self.columns(batch)) == expected
            assert disk.extent_bytes(*map(np.array, self.columns(batch))) == expected
        assert disk.stats == before  # uncharged

    @pytest.mark.parametrize(
        "columns", [([0], [-1], [4]), ([0], [0], [-1]), ([-1], [40], [4]), ([0, 9], [0, 0], [4, 4])]
    )
    def test_bad_columns_rejected(self, columns):
        disk = SimulatedDisk(page_size=self.PAGE)
        disk.allocate(2)
        with pytest.raises(DiskError):
            disk.extent_bytes(*columns)

    def test_file_backend_faults_exactly_the_record_spans(self, tmp_path):
        disk = FileBackedDisk.create(tmp_path / "store", page_size=self.PAGE)
        pointers = self.records(disk)
        disk.compact()
        disk.close()
        batch = sorted(pointers[5:30], key=lambda p: (p.first_page, p.offset))
        spans = {
            page
            for p in batch
            if p.length
            for page in range(
                p.first_page + p.offset // self.PAGE,
                p.first_page + (p.offset + p.length - 1) // self.PAGE + 1,
            )
        }
        reads = []
        for one_call in (True, False):
            reopened = FileBackedDisk.open(tmp_path / "store")
            if one_call:
                payload = reopened.extent_bytes(*self.columns(batch))
            else:
                payload = b"".join(reopened.extent_bytes(*self.columns([p])) for p in batch)
            reads.append((payload, reopened.pages_faulted))
            reopened.close()
        assert reads[0] == reads[1]
        assert reads[0][1] == len(spans) > 0


class TestPoolRejectsUnallocatedPages:
    """A call naming a page the disk never allocated raises before it
    changes any counter, LRU entry or disk statistic."""

    @staticmethod
    def two_page_pool(capacity):
        disk = SimulatedDisk(page_size=8)
        disk.allocate(2)
        for page in range(2):
            disk.write_page(page, b"p" * (page + 1))
        return disk, BufferPool(disk, capacity=capacity), disk.stats.copy()

    @staticmethod
    def resident(pool):
        return set(pool._pages)

    def test_get_page(self):
        disk, pool, before = self.two_page_pool(4)
        with pytest.raises(DiskError):
            pool.get_page(7)
        assert (pool.hits, pool.misses, pool.evictions) == (0, 0, 0)
        assert disk.stats == before and not self.resident(pool)

    def test_get_pages_stops_before_the_first_page(self):
        disk, pool, before = self.two_page_pool(4)
        with pytest.raises(DiskError):
            pool.get_pages([0, 7, 1])
        assert (pool.hits, pool.misses, pool.evictions) == (0, 0, 0)
        assert disk.stats == before and not self.resident(pool)

    def test_zero_capacity_counts_no_miss(self):
        disk, pool, before = self.two_page_pool(0)
        with pytest.raises(DiskError):
            pool.get_pages([0, 7])
        assert (pool.hits, pool.misses, pool.evictions) == (0, 0, 0)
        assert disk.stats == before


#: Id lists of long runs of one id, the calls whose repeats ``get_pages``
#: collapses (``RUN_COLLAPSE_MIN_IDS`` ids or more), with rare bad ids.
page_runs = st.lists(
    st.tuples(st.integers(-1, 12) | st.integers(0, 11), st.integers(1, 40)), max_size=12
).map(lambda runs: [page for page, count in runs for _ in range(count)])

pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get_page"), st.integers(-1, 12)),
        st.tuples(
            st.just("get_pages"), st.lists(st.integers(-1, 12), max_size=16), st.booleans()
        ),
        st.tuples(st.just("get_pages"), page_runs, st.booleans()),
        st.tuples(st.just("invalidate"), st.none() | st.integers(0, 11)),
        st.tuples(st.just("write_page"), st.integers(0, 11), st.integers(0, 8)),
    ),
    max_size=40,
)


class TestBufferPoolModel:
    @settings(max_examples=60, deadline=None)
    @given(pool_ops, st.sampled_from([0, 1, 3, 8, 32]))
    def test_pool_matches_lru_model(self, ops, capacity):
        """Random get_page / get_pages (list and numpy input, short lists and
        long runs of repeated ids) / invalidate / write-through sequences:
        the pool and the LRU model agree on hits, misses, evictions, disk
        statistics and the resident ids in LRU order after every step,
        rejected calls included."""
        disk = SimulatedDisk(page_size=8)
        disk.allocate(12)
        pool = BufferPool(disk, capacity=capacity)
        model = LRUModel(12, capacity)
        for op, *args in ops:
            if op == "write_page":
                page, length = args
                disk.write_page(page, b"w" * length)
                model.write_page(page, length)
            elif op == "invalidate":
                pool.invalidate(args[0])
                model.invalidate(args[0])
            else:
                page_ids = [args[0]] if op == "get_page" else args[0]
                try:
                    model.access(page_ids)
                except ValueError:
                    rejected = True
                else:
                    rejected = False
                call = pool.get_page if op == "get_page" else pool.get_pages
                argument = args[0] if op == "get_page" else (
                    np.array(page_ids, dtype=np.int64) if args[1] else page_ids
                )
                if rejected:
                    with pytest.raises(DiskError):
                        call(argument)
                else:
                    call(argument)
            assert (pool.hits, pool.misses, pool.evictions) == (
                model.hits, model.misses, model.evictions,
            )
            assert disk.stats == model.stats
            assert list(pool._pages) == model.pages


    @pytest.mark.parametrize("capacity", [0, 1, 3])
    def test_long_runs_match_lru_model(self, capacity):
        """Calls long enough to have their repeats collapsed, at capacity 0
        (every access a read), 1 and a few pages: same counters, disk
        statistics and resident order as the page-by-page model."""
        disk = SimulatedDisk(page_size=8)
        disk.allocate(12)
        pool, model = BufferPool(disk, capacity=capacity), LRUModel(12, capacity)
        runs = [(3, 30), (5, 1), (3, 20), (7, 40), (5, 2), (0, 25)]
        ids = [page for page, count in runs for _ in range(count)]
        for call in (ids, np.array(ids[::-1]), ids[40:]):
            pool.get_pages(call)
            model.access(call)
            assert (pool.hits, pool.misses, pool.evictions) == (
                model.hits, model.misses, model.evictions,
            )
            assert disk.stats == model.stats and list(pool._pages) == model.pages


class TestChargeReads:
    """``SimulatedDisk.charge_reads`` is ``read_page``'s accounting in one
    pass, and a bad id raises before any counter moves."""

    @pytest.mark.parametrize("ids, bad", [([1, 0, 7, 2], 7), ([1, -1, 2], -1), ([0, -2, 9], -2)])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_unallocated_page_raises_before_counting(self, ids, bad, as_array):
        disk = SimulatedDisk(page_size=8)
        disk.allocate(3)
        disk.write_page(1, b"abc")
        before = disk.stats.copy()
        with pytest.raises(DiskError, match=f"page {bad} was never allocated"):
            disk.charge_reads(np.array(ids) if as_array else ids)
        assert disk.stats == before
        disk.charge_reads(np.array([1, 1, 2]) if as_array else [1, 1, 2])
        assert (disk.stats.page_reads, disk.stats.bytes_read) == (3, 6)


class TestSerialization:
    """The varint codec, through its one user: the journal's append delta."""

    def test_int_list_roundtrip(self):
        values = (0, 1, 127, 128, 300, 2**40)
        assert decode_append_delta(encode_append_delta(300, [values])) == (300, (values,))

    def test_int_list_empty(self):
        assert decode_append_delta(encode_append_delta(0, [])) == (0, ())

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_append_delta(300, [(1, 2, 3, 4, 5, -1)])

    def test_truncated_payload(self):
        payload = encode_append_delta(300, [(1, 2, 3, 4, 5, 6)])
        with pytest.raises(SerializationError):
            decode_append_delta(payload[:-1])

    @given(st.lists(st.tuples(*[st.integers(0, 2**62)] * 6), max_size=30))
    def test_int_list_property(self, entries):
        assert decode_append_delta(encode_append_delta(60, entries)) == (60, tuple(entries))

    @given(
        st.lists(st.tuples(*[st.integers(0, 2**63 - 1)] * 6), max_size=30),
        st.integers(0, 2**31),
    )
    def test_bytes_are_the_scalar_varints(self, entries, delta_t_s):
        """The vectorized encoder writes what one scalar varint per value
        writes, from tuples and from an ``int64`` row array alike."""
        values = [delta_t_s, len(entries), *(v for entry in entries for v in entry)]
        expected = b"".join(scalar_varint(v) for v in values)
        assert encode_append_delta(delta_t_s, entries) == expected
        rows = np.array(entries, dtype=np.int64).reshape(-1, 6)
        assert encode_append_delta(delta_t_s, rows) == expected

    def test_a_row_of_another_width_rejected(self):
        with pytest.raises(SerializationError):
            encode_append_delta(300, [(1, 2, 3, 4, 5, 6), (1, 2, 3)])


class TestDiskStatsLockedReads:
    """Regression tests for RL001 fixes: counter reads that used to peek
    at ``stats``/``_used`` without the disk lock now snapshot under it."""

    def test_num_pages_and_repr_while_writing(self):
        import threading

        disk = SimulatedDisk(page_size=16)
        errors: list[BaseException] = []
        stop = threading.Event()

        def observer():
            try:
                while not stop.is_set():
                    assert disk.num_pages >= 0
                    assert "SimulatedDisk(" in repr(disk)
                    disk.snapshot()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        t = threading.Thread(target=observer)
        t.start()
        for _ in range(200):
            page = disk.allocate()
            disk.write_page(page, b"y" * 16)
        stop.set()
        t.join()
        assert errors == []
        assert disk.num_pages == 200
        assert disk.snapshot().page_writes == 200
