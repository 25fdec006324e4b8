"""The array-at-a-time bulk paths against their record-at-a-time oracles.

* ``STIndex.build`` vs ``reference.st_index_build.scalar_build``: identical
  page bytes, per-page payload lengths, exported directory columns,
  ``DiskStats``, index stats and tail state — and an ``append_trajectories``
  issued after either build lands on identical pointers.
* ``PageStore.append_many`` vs a loop of ``append``.
* ``SimulatedDisk.write_extent`` vs a loop of ``write_page``.
* ``TimeListDirectory.columns`` / ``from_columns`` round trip and the
  loader's first-offending-row errors.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.st_index_build import scalar_build
from repro.core.directory import DIRECTORY_COLUMNS, TimeListDirectory
from repro.core.st_index import STIndex
from repro.io.persist import PersistFormatError
from repro.network.generator import grid_city
from repro.network.model import RoadNetwork, RoadSegment
from repro.spatial.geometry import Point
from repro.storage.backends import FileBackedDisk
from repro.storage.disk import DiskError, SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer
from repro.trajectory.model import SECONDS_PER_DAY, MatchedTrajectory, SegmentVisit
from repro.trajectory.store import TrajectoryDatabase


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def disk_state(disk: SimulatedDisk):
    buffer, used = disk.export_state()
    return buffer, used, disk.stats.copy()


def store_state(store: PageStore):
    return store._tail_page_id, bytes(store._tail), store._dirty


def index_state(index: STIndex):
    return (
        disk_state(index.disk),
        {name: column.tolist() for name, column in index.directory.columns().items()},
        index.stats,
        store_state(index._store),
    )


def random_database(seed: int, segment_ids, trajectories: int = 40, days: int = 6):
    """Visits with duplicates, out-of-day times and empty trajectories."""
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase(num_taxis=8, num_days=days)
    for trajectory in range(trajectories):
        count = int(rng.integers(0, 14))
        segments = rng.choice(segment_ids, count)
        # A few hot instants make (segment, slot, date, id, second) repeat;
        # the rest spill over both ends of the day.
        times = np.where(
            rng.random(count) < 0.3,
            rng.choice([0.0, 299.9, 300.0, 43_200.5], count),
            rng.uniform(-900.0, SECONDS_PER_DAY + 900.0, count),
        )
        if count > 2:
            segments[1], times[1] = segments[0], times[0]
        database.add_arrays(
            # Ids are sparse and not in date order.
            (trajectories - trajectory) * 7 + 3,
            trajectory % 8,
            int(rng.integers(0, days)),
            segments,
            times,
            np.ones(count),
        )
    return database


def late_arrivals(segment_ids):
    """Trajectories for the append issued after a build."""
    return [
        MatchedTrajectory(
            trajectory_id=900_000 + i,
            taxi_id=i,
            date=i,
            visits=[
                SegmentVisit(segment_ids[i % len(segment_ids)], 30_000.0 + 400 * j, 5.0)
                for j in range(60)
            ],
        )
        for i in range(3)
    ]


def assert_builds_agree(network, database, delta_t_s=300, page_size=128, disks=None):
    """Bulk-build one index, scalar-build its twin, compare everything."""
    bulk_disk, scalar_disk = disks or (
        SimulatedDisk(page_size=page_size),
        SimulatedDisk(page_size=page_size),
    )
    bulk = STIndex(network, delta_t_s, disk=bulk_disk)
    scalar = STIndex(network, delta_t_s, disk=scalar_disk)
    bulk.build(database)
    scalar_build(scalar, database)
    assert index_state(bulk) == index_state(scalar)
    extra = late_arrivals(sorted(network.segment_ids()))
    assert bulk.append_trajectories(extra) == scalar.append_trajectories(extra)
    assert index_state(bulk) == index_state(scalar)
    return bulk, scalar


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=3, cols=3, spacing=500.0, primary_every=0, seed=2)


# ---------------------------------------------------------------------------
# STIndex.build
# ---------------------------------------------------------------------------


class TestBulkBuildMatchesScalar:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_cities(self, seed):
        rng = np.random.default_rng(seed)
        network = grid_city(
            rows=int(rng.integers(2, 5)),
            cols=int(rng.integers(2, 5)),
            spacing=400.0,
            primary_every=0,
            seed=seed,
        )
        database = random_database(seed, sorted(network.segment_ids()))
        assert_builds_agree(
            network,
            database,
            delta_t_s=int(rng.choice([60, 300, 1200, 7000])),
            page_size=int(rng.choice([32, 100, 128, 4096])),
        )

    def test_test_config_city(self, test_dataset):
        bulk, _ = assert_builds_agree(
            test_dataset.network, test_dataset.database, page_size=1024
        )
        assert bulk.stats.num_entries > 1000

    def test_duplicate_visits_count_once(self, network):
        segment = sorted(network.segment_ids())[0]
        database = TrajectoryDatabase(num_taxis=2, num_days=2)
        database.add_arrays(5, 0, 1, [segment] * 4, [10.0, 10.0, 10.9, 11.0], [1.0] * 4)
        bulk, _ = assert_builds_agree(network, database)
        assert bulk.time_entries(segment, 0) == {1: [(5, 10), (5, 11)]}

    def test_times_outside_the_day_are_clamped(self, network):
        segment = sorted(network.segment_ids())[0]
        database = TrajectoryDatabase(num_taxis=2, num_days=1)
        times = [-5.0, 86_400.0, 90_000.0]
        database.add_arrays(1, 0, 0, [segment] * 3, times, [1.0] * 3)
        bulk, _ = assert_builds_agree(network, database)
        assert bulk.time_entries(segment, 0) == {0: [(1, 0)]}
        assert bulk.time_entries(segment, bulk.num_slots - 1) == {0: [(1, 86_399)]}

    def test_empty_trajectories_and_empty_database(self, network):
        database = TrajectoryDatabase(num_taxis=2, num_days=1)
        bulk, _ = assert_builds_agree(network, database)
        assert bulk.disk.num_pages > 0  # the append after the build landed
        database.add_arrays(1, 0, 0, [], [], [])
        bulk = STIndex(network, 300)
        bulk.build(database)
        assert bulk.disk.num_pages == 0 and bulk.stats.num_entries == 0

    def test_one_segment_network(self):
        network = RoadNetwork()
        network.add_node(0, Point(0, 0))
        network.add_node(1, Point(100, 0))
        network.add_segment(RoadSegment(17, 0, 1, (Point(0, 0), Point(100, 0))))
        database = random_database(3, [17])
        assert_builds_agree(network, database, page_size=64)

    def test_disk_already_holding_another_index(self, network):
        segment_ids = sorted(network.segment_ids())
        coarse_data = random_database(11, segment_ids, trajectories=10)
        database = random_database(12, segment_ids)
        disks = SimulatedDisk(page_size=64), SimulatedDisk(page_size=64)
        coarse = []
        for disk in disks:
            index = STIndex(network, 1200, disk=disk)
            scalar_build(index, coarse_data)
            coarse.append(index)
        assert_builds_agree(network, database, disks=disks)
        # The first index's tail is no longer the disk's last page: its
        # next append must start a fresh extent, identically on both.
        extra = late_arrivals(segment_ids)
        for index in coarse:
            index.append_trajectories(extra)
        assert index_state(coarse[0]) == index_state(coarse[1])

    def test_file_backed_build_commit_reopen(self, network, tmp_path):
        database = random_database(21, sorted(network.segment_ids()))
        disks = [
            FileBackedDisk.create(tmp_path / name, page_size=128)
            for name in ("bulk", "scalar")
        ]
        assert_builds_agree(network, database, disks=disks)
        journals = []
        for disk in disks:
            disk.commit()
            disk.close()
            journals.append((disk.directory / "journal.0.log").read_bytes())
        assert journals[0] == journals[1] and journals[0]
        reopened = [FileBackedDisk.open(disk.path) for disk in disks]
        assert reopened[0].export_state() == reopened[1].export_state()
        assert reopened[0].export_state() == disks[0].export_state()
        for disk in reopened:
            disk.close()

    def test_build_twice_rejected(self, network):
        index = STIndex(network, 300)
        index.build(TrajectoryDatabase(num_taxis=1, num_days=1))
        with pytest.raises(RuntimeError):
            index.build(TrajectoryDatabase(num_taxis=1, num_days=1))


class TestBuildInputChecks:
    """Regressions: the bulk path used to clamp only the upper end of visit
    times, and nothing stopped an id or date wrapping in ``struct.pack``."""

    def test_negative_time_builds_like_it_appends(self, network):
        segment = sorted(network.segment_ids())[0]
        database = TrajectoryDatabase(num_taxis=1, num_days=1)
        database.add_arrays(4, 0, 0, [segment], [-30.0], [1.0])
        built = STIndex(network, 300)
        built.build(database)
        appended = STIndex(network, 300)
        appended.build(TrajectoryDatabase(num_taxis=1, num_days=1))
        appended.append_trajectories(
            [MatchedTrajectory(4, 0, 0, [SegmentVisit(segment, -30.0, 1.0)])]
        )
        assert built.time_entries(segment, 0) == {0: [(4, 0)]}
        assert appended.time_entries(segment, 0) == {0: [(4, 0)]}

    @pytest.mark.parametrize(
        "trajectory_id, date, match",
        [
            (1 << 32, 0, "trajectory id"),
            (-1, 0, "trajectory id"),
            (1, 1 << 32, "date"),
        ],
    )
    def test_id_or_date_outside_uint32_raises_before_writing(
        self, network, trajectory_id, date, match
    ):
        segment = sorted(network.segment_ids())[0]
        database = TrajectoryDatabase(num_taxis=1, num_days=(1 << 32) + 1)
        database.add_arrays(7, 0, 0, [segment], [10.0], [1.0])
        database.add_arrays(trajectory_id, 0, date, [segment], [10.0], [1.0])
        index = STIndex(network, 300)
        with pytest.raises(ValueError, match=match):
            index.build(database)
        assert index.disk.num_pages == 0 and index.disk.stats.page_writes == 0
        assert not index._built

    @pytest.mark.parametrize(
        "trajectory_id, date, match",
        [
            (1, 1 << 31, "date"),
            (1, (1 << 32) - 1, "date"),
            (1, -1, "date"),
            (1 << 32, 0, "trajectory id"),
            (-5, 0, "trajectory id"),
        ],
    )
    @pytest.mark.parametrize("path", ["build", "append", "append-file"])
    def test_key_outside_packed_range_raises_on_both_write_paths(
        self, network, tmp_path, path, trajectory_id, date, match
    ):
        """A date >= 2**31 used to be accepted on write and then crashed
        every gather that touched its (segment, slot); append checked
        nothing at all and acknowledged the poison record."""
        segment = sorted(network.segment_ids())[0]
        on_file = path == "append-file"
        disk = (
            FileBackedDisk.create(tmp_path / "disk", page_size=128)
            if on_file
            else SimulatedDisk(page_size=128)
        )
        index = STIndex(network, 300, disk=disk)
        good = (7, 0, np.array([segment], np.int32), np.array([10.0]))
        bad = (trajectory_id, date, good[2], good[3])

        def rows(*compact):
            # TrajectoryDatabase refuses a negative date itself; build's
            # gate must hold for any source of compact rows.
            return SimpleNamespace(iter_compact=lambda: iter(compact))

        def written():
            journal = disk.directory / "journal.0.log" if on_file else None
            return (
                disk.num_pages,
                disk.stats.page_writes,
                (disk.journal_record_count, journal.stat().st_size) if on_file else None,
            )

        if path == "build":
            before = written()
            with pytest.raises(ValueError, match=match):
                index.build(rows(good, bad))
            assert written() == before and not index._built
            return
        index.build(rows(good))
        disk.commit()
        before = written()
        visits = [SegmentVisit(segment, 10.0, 1.0)]
        with pytest.raises(ValueError, match=match):
            index.append_trajectories(
                [
                    MatchedTrajectory(8, 0, 0, visits),
                    MatchedTrajectory(trajectory_id, 0, date, visits),
                ]
            )
        assert written() == before
        # Nothing half-landed: the valid trajectory of the refused call too.
        assert index.time_entries(segment, 0) == {0: [(7, 10)]}
        if on_file:
            disk.close()

    def test_uint32_extremes_are_stored_exactly(self, network):
        segment = sorted(network.segment_ids())[0]
        top_id, top_date = (1 << 32) - 1, (1 << 31) - 1
        database = TrajectoryDatabase(num_taxis=1, num_days=1 << 31)
        database.add_arrays(top_id, 0, top_date, [segment], [10.0], [1.0])
        bulk, _ = assert_builds_agree(network, database)
        assert bulk.time_entries(segment, 0) == {top_date: [(top_id, 10)]}
        keys = bulk.gather_window_columns((segment,), bulk.window_plan(0.0, 300.0))[0][0]
        assert keys.tolist() == [(top_date << 32) | top_id]

    def test_packed_key_overflow_raises_before_writing(self, network):
        database = TrajectoryDatabase(num_taxis=1, num_days=1)
        database.add_arrays(1, 0, 0, [30_000], [10.0], [1.0])
        index = STIndex(network, 1)  # 86,400 slots x segment 30,000 > 2**31
        with pytest.raises(ValueError, match="overflows"):
            index.build(database)
        assert index.disk.num_pages == 0 and not index._built


# ---------------------------------------------------------------------------
# PageStore.append_many
# ---------------------------------------------------------------------------

PAGE = 32


def payloads_of(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, 256, n, dtype=np.uint8).tobytes() for n in lengths]


def assert_append_many_matches_loop(lengths, held=0, interleave=False, leading_empty=False):
    """Same starting state on two disks; bulk on one, a loop on the other."""
    payloads = payloads_of(lengths)
    disks, stores, pointers = [], [], []
    for bulk in (True, False):
        disk = SimulatedDisk(page_size=PAGE)
        store = PageStore(disk)
        pool = BufferPool(disk, capacity=4)
        if leading_empty:
            store.append(b"")  # a tail page that holds nothing yet
        if held:
            store.append(b"\x07" * held)
        if interleave:
            PageStore(disk).append(b"other store")
        if bulk:
            columns = store.append_many(b"".join(payloads), np.array(lengths, np.int64))
            got = list(map(RecordPointer, *(c.tolist() for c in columns)))
        else:
            got = [store.append(payload) for payload in payloads]
        disks.append(disk)
        stores.append((store, pool))
        pointers.append(got)
    assert pointers[0] == pointers[1]
    assert disk_state(disks[0]) == disk_state(disks[1])
    assert store_state(stores[0][0]) == store_state(stores[1][0])
    for store, pool in stores:  # reads flush a dirty tail, then serve bytes
        assert [store.read(p, pool=pool) for p in pointers[0]] == payloads
    # Later appends and the group commit continue identically.
    for payload in (b"", b"tail", b"x" * (2 * PAGE + 1)):
        assert stores[0][0].append(payload) == stores[1][0].append(payload)
    for store, _ in stores:
        store.flush()
    assert disk_state(disks[0]) == disk_state(disks[1])
    assert store_state(stores[0][0]) == store_state(stores[1][0])


class TestAppendMany:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, PAGE - 1, PAGE, PAGE + 1, 2 * PAGE, 5 * PAGE]),
                st.integers(0, 4 * PAGE),
            ),
            max_size=12,
        ),
        st.sampled_from([0, 1, 7, PAGE - 1, PAGE]),
        st.booleans(),
        st.booleans(),
    )
    def test_random_records(self, lengths, held, interleave, leading_empty):
        assert_append_many_matches_loop(lengths, held, interleave, leading_empty)

    @pytest.mark.parametrize(
        "lengths, held, interleave",
        [
            ([], 0, False),
            ([], 5, True),
            ([0], 0, False),
            ([0, 0, 0], 3, False),
            ([PAGE], 0, False),  # ends on a boundary: no tail page left
            ([PAGE, 0], 0, False),  # an empty record opens the next page
            ([PAGE - 5], 5, False),  # fills the starting tail exactly
            ([PAGE - 5, 0, 4], 5, True),
            ([3 * PAGE, 3 * PAGE], 0, False),
            ([10 * PAGE + 1], 9, False),  # one record over many pages
            ([4, 4, 40, 4], 20, True),  # two fit, then a fresh extent
            ([40], 20, True),  # nothing fits: the tail is retired at once
            ([0, 40], 0, True),
        ],
    )
    def test_hand_cases(self, lengths, held, interleave):
        assert_append_many_matches_loop(lengths, held, interleave)
        assert_append_many_matches_loop(lengths, held, interleave, leading_empty=True)

    def test_accepts_a_word_array(self):
        store = PageStore(SimulatedDisk(page_size=PAGE))
        words = np.arange(20, dtype="<u4")
        first, pages, offset, length = store.append_many(words, np.array([32, 48]))
        assert (first.tolist(), pages.tolist()) == ([0, 1], [1, 2])
        pointer = RecordPointer(1, 2, 0, 48)
        assert store.read(pointer) == words[8:].tobytes()

    def test_bad_lengths_rejected(self):
        disk = SimulatedDisk(page_size=PAGE)
        store = PageStore(disk)
        for lengths in ([3, 3], [-1, 6], [[5]]):
            with pytest.raises(ValueError):
                store.append_many(b"12345", np.array(lengths))
        assert disk.num_pages == 0


# ---------------------------------------------------------------------------
# SimulatedDisk.write_extent
# ---------------------------------------------------------------------------


class TestWriteExtent:
    @pytest.mark.parametrize("size", [1, PAGE - 1, PAGE, PAGE + 1, 4 * PAGE, 4 * PAGE + 9])
    def test_matches_a_write_page_loop(self, size):
        data = payloads_of([size], seed=size)[0]
        states = []
        for bulk in (True, False):
            disk = SimulatedDisk(page_size=PAGE)
            disk.allocate(8)
            pool = BufferPool(disk, capacity=8)
            pool.get_pages(list(range(8)))  # every page cached before the write
            before = disk.local_snapshot()
            if bulk:
                disk.write_extent(2, memoryview(data))
            else:
                for i in range(0, size, PAGE):
                    disk.write_page(2 + i // PAGE, data[i : i + PAGE])
            window = disk.local_snapshot() - before
            cached = [
                page for shard in pool._shards for page in shard.pages
            ]
            states.append((disk_state(disk), window, sorted(cached)))
        assert states[0] == states[1]
        written = -(-size // PAGE)
        assert states[0][1].page_writes == written
        # Write-through invalidation: exactly the written pages left the pool.
        assert states[0][2] == [p for p in range(8) if not 2 <= p < 2 + written]

    def test_thread_local_stats_stay_with_the_writer(self):
        disk = SimulatedDisk(page_size=PAGE)
        disk.allocate(4)
        windows = {}

        def write():
            before = disk.local_snapshot()
            disk.write_extent(0, b"z" * (3 * PAGE))
            windows["writer"] = disk.local_snapshot() - before

        before = disk.local_snapshot()
        worker = threading.Thread(target=write)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert windows["writer"].page_writes == 3
        assert (disk.local_snapshot() - before).page_writes == 0
        assert disk.stats.page_writes == 3 and disk.stats.bytes_written == 3 * PAGE

    def test_empty_write_is_free(self):
        disk = SimulatedDisk(page_size=PAGE)
        disk.write_extent(0, b"")
        assert disk.stats.page_writes == 0

    def test_unallocated_pages_rejected_before_writing(self):
        disk = SimulatedDisk(page_size=PAGE)
        disk.allocate(2)
        for first in (-1, 1, 2):
            with pytest.raises(DiskError):
                disk.write_extent(first, b"q" * (PAGE + 1))
        assert disk_state(disk) == (bytes(2 * PAGE), (0, 0), disk.stats.copy())
        assert disk.stats.page_writes == 0

    def test_file_backend_journals_every_page(self, tmp_path):
        disk = FileBackedDisk.create(tmp_path / "store", page_size=PAGE)
        disk.allocate(5)
        disk.commit()
        data = payloads_of([3 * PAGE + 4])[0]
        disk.write_extent(1, data)
        disk.commit()
        disk.close()
        reopened = FileBackedDisk.open(tmp_path / "store")
        assert reopened.extent_bytes(1, 0, len(data)) == data
        assert reopened.export_state()[1] == (0, PAGE, PAGE, PAGE, 4)
        reopened.close()


# ---------------------------------------------------------------------------
# the columnar directory form
# ---------------------------------------------------------------------------


class TestDirectoryColumns:
    def test_round_trip_after_appends(self, network):
        segment_ids = sorted(network.segment_ids())
        index = STIndex(network, 300, disk=SimulatedDisk(page_size=128))
        index.build(random_database(5, segment_ids))
        index.append_trajectories(late_arrivals(segment_ids))
        columns = index.directory.columns()
        assert tuple(columns) == DIRECTORY_COLUMNS
        assert all(c.dtype == np.int64 and c.ndim == 1 for c in columns.values())
        # Rows come out in (segment, slot, position) order even though the
        # appended chains were created last.
        rows = list(zip(*(columns[name].tolist() for name in DIRECTORY_COLUMNS[:3])))
        assert rows == sorted(rows)
        assert max(columns["dir_position"]) > 0
        restored = TimeListDirectory.from_columns(
            columns, 288, index.disk.num_pages, index.disk.page_size, "test directory"
        )
        assert len(restored) == len(index.directory) == len(set(r[:2] for r in rows))
        for name, column in restored.columns().items():
            assert column.tolist() == columns[name].tolist()

    def test_empty_directory(self, network):
        index = STIndex(network, 300)
        index.build(TrajectoryDatabase(num_taxis=1, num_days=1))
        columns = index.directory.columns()
        assert all(c.shape == (0,) and c.dtype == np.int64 for c in columns.values())
        restored = TimeListDirectory.from_columns(columns, 288, 0, 4096, "test directory")
        assert len(restored) == 0 and restored.probe((3,), (0, 1)) == [(), ()]

    def columns(self, rows):
        table = np.array(rows, dtype=np.int64).reshape(-1, 7)
        return dict(zip(DIRECTORY_COLUMNS, table.T))

    def test_scattered_chain_rows_keep_their_order(self):
        columns = self.columns(
            [(4, 1, 0, 0, 1, 0, 8), (2, 9, 0, 1, 1, 0, 8), (4, 1, 1, 2, 2, 4, 100)]
        )
        restored = TimeListDirectory.from_columns(columns, 288, 4, 64, "test directory")
        assert len(restored) == 2
        assert restored.probe((2, 4), (1, 9)) == [
            (),
            ((1, 1, 0, 8),),
            ((0, 1, 0, 8), (2, 2, 4, 100)),
            (),
        ]

    @pytest.mark.parametrize(
        "rows, message",
        [
            # The first offending row decides the error.
            ([(1, 0, 1, 0, 1, 0, 4)], "rows out of chain order"),
            ([(1, 0, 0, 0, 1, 0, 4), (1, 0, 2, 0, 1, 0, 4)], "rows out of chain order"),
            ([(1, 0, 0, 0, 0, 0, 4)], r"pointer \(0, 0, 0, 4\) outside"),
            ([(1, 0, 0, 3, 2, 0, 4)], r"pointer \(3, 2, 0, 4\) outside"),
            ([(1, 0, 0, -1, 1, 0, 4)], r"pointer \(-1, 1, 0, 4\) outside"),
            ([(1, 0, 0, 0, 1, 60, 5)], r"pointer \(0, 1, 60, 5\) outside"),
            ([(1, 0, 0, 0, 1, 0, -4)], r"pointer \(0, 1, 0, -4\) outside"),
            ([(1, 0, 0, 0, 1, 1 << 62, 1 << 62)], "outside the persisted page range"),
            (
                [(1, 0, 0, 9, 1, 0, 4), (2, 0, 1, 0, 1, 0, 4)],
                r"pointer \(9, 1, 0, 4\) outside",
            ),
            (
                [(2, 0, 1, 0, 1, 0, 4), (1, 0, 0, 9, 1, 0, 4)],
                "rows out of chain order",
            ),
            # A key that names no entry would alias a real one once packed.
            ([(1, -1, 0, 0, 1, 0, 4)], "row 0 names no entry: segment 1, slot -1"),
            ([(1, 288, 0, 0, 1, 0, 4)], "row 0 names no entry: segment 1, slot 288"),
            ([(-7, 0, 0, 0, 1, 0, 4)], "row 0 names no entry: segment -7"),
            ([(1 << 62, 0, 0, 0, 1, 0, 4)], "row 0 names no entry"),
            (
                [(1, 0, 0, 0, 1, 0, 4), (3, 10**6, 0, 9, 1, 0, 4)],
                "row 1 names no entry: segment 3, slot 1000000",
            ),
            (
                [(1, 0, 0, 9, 1, 0, 4), (3, -1, 0, 0, 1, 0, 4)],
                r"pointer \(9, 1, 0, 4\) outside",
            ),
            (
                [(2, 0, 1, 0, 1, 0, 4), (3, -1, 0, 0, 1, 0, 4)],
                "rows out of chain order",
            ),
        ],
    )
    def test_first_offending_row_raises(self, rows, message):
        with pytest.raises(PersistFormatError, match=message):
            TimeListDirectory.from_columns(
                self.columns(rows), 288, 4, 64, "test directory"
            )

    def test_mismatched_shapes_rejected(self):
        columns = self.columns([(1, 0, 0, 0, 1, 0, 4)])
        columns["dir_length"] = np.zeros(2, dtype=np.int64)
        with pytest.raises(PersistFormatError, match="mismatched shapes"):
            TimeListDirectory.from_columns(columns, 288, 4, 64, "test directory")
