"""Tests for the simulated disk, page store, buffer pool and codecs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.disk import DiskError, DiskStats, SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer
from repro.storage.serialization import (
    SerializationError,
    decode_append_delta,
    encode_append_delta,
)


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

    def test_simulated_io_accounting(self):
        disk = SimulatedDisk(read_latency_ms=5.0, write_latency_ms=7.0)
        page = disk.allocate()
        disk.write_page(page, b"a")
        disk.read_page(page)
        disk.read_page(page)
        assert disk.simulated_io_ms() == pytest.approx(2 * 5.0 + 7.0)

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
        disk.reset_stats()
        assert disk.stats == DiskStats()


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


class TestDiskStatsLockedReads:
    """Regression tests for RL001 fixes: counter reads that used to peek
    at ``stats``/``_used`` without the disk lock now snapshot under it."""

    def test_simulated_io_ms_default_snapshots_own_stats(self):
        disk = SimulatedDisk(page_size=16, read_latency_ms=5.0, write_latency_ms=7.0)
        page = disk.allocate()
        disk.write_page(page, b"x" * 16)
        disk.read_page(page)
        assert disk.simulated_io_ms() == 5.0 + 7.0
        # Explicit stats still win over the internal counters.
        assert disk.simulated_io_ms(disk.snapshot()) == disk.simulated_io_ms()

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
                    disk.simulated_io_ms()
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
