"""The order time-list records lie on disk: road-major.

Eq. 3.1 reads a road's two carriageways over the same window, so the
bulk build and every append batch write records by road, then slot, then
carriageway (:meth:`STIndex._road_major`).  The directory keeps its
``(segment, slot)`` keys and explicit pointers, so a store written in the
older per-segment order opens and answers unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.client_protocol import s_query
from reference.st_index_build import road_order, scalar_append, scalar_build
from repro.core.directory import DIRECTORY_COLUMNS, TimeListDirectory
from repro.core.engine import ReachabilityEngine
from repro.core.query import SQuery
from repro.core.st_index import STIndex
from repro.io.persist import open_store, save_store
from repro.network.generator import grid_city
from repro.storage.disk import SimulatedDisk
from repro.storage.pagestore import PageStore
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=3, cols=3, spacing=500.0, primary_every=0, seed=2)


@pytest.fixture(scope="module")
def built(test_dataset):
    """An engine over the test city with a freshly built 5-min index."""
    engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
    engine.st_index(300)
    return engine


def disk_order(index: STIndex) -> list[tuple[int, int, int]]:
    """``(road, slot, carriageway)`` of every record, in the order of their
    bytes on disk; a chain's appended records follow its first."""
    columns = index.directory.columns()
    start = columns["dir_first_page"] * index.disk.page_size + columns["dir_offset"]
    order = road_order(index.network)
    segments, slots = columns["dir_segment"].tolist(), columns["dir_slot"].tolist()
    rows = sorted(zip(start.tolist(), segments, slots))
    return [(order(segment)[0], slot, order(segment)[1]) for _, segment, slot in rows]


def record_start(index: STIndex, segment: int, slot: int) -> tuple[int, int]:
    """Byte position and length of the last record of a ``(segment, slot)`` chain."""
    first_page, _, offset, length = index.directory.probe((segment,), (slot,))[1][-1].tolist()
    return first_page * index.disk.page_size + offset, length


def both_ways(trajectory_id: int, date: int, road: tuple[int, int], times) -> MatchedTrajectory:
    visits = [SegmentVisit(segment, time_s, 5.0) for time_s in times for segment in road]
    return MatchedTrajectory(trajectory_id, 0, date, visits)


class TestRoadMajorOrder:
    def test_a_road_slot_is_one_run_carriageway_a_then_b(self, network):
        a = min(s for s in network.segment_ids() if network.segment(s).twin_id is not None)
        b = network.segment(a).twin_id
        assert a < b
        others = sorted(set(network.segment_ids()) - {a, b})
        database = TrajectoryDatabase(num_taxis=2, num_days=3)
        for trajectory_id in range(6):
            times = [36_000.0 + 40 * trajectory_id, 36_010.0, 36_400.0, 36_410.0, 50_000.0]
            segments = [a, b, a, b, others[trajectory_id]]
            database.add_arrays(trajectory_id, 0, trajectory_id % 3, segments, times, [5.0] * 5)
        index = STIndex(network, 300, disk=SimulatedDisk(page_size=64))
        index.build(database)
        slot = index.slot_of(36_000.0)
        start_a, length_a = record_start(index, a, slot)
        assert record_start(index, b, slot)[0] == start_a + length_a
        # The next slot of the road follows the pair, then the next road.
        assert record_start(index, a, slot + 1)[0] == sum(record_start(index, b, slot))
        assert disk_order(index) == sorted(disk_order(index))
        # An append batch is written in the same order, after the build's records.
        built = len(disk_order(index))
        index.append_trajectories(
            [both_ways(100 + i, 2, (b, a), [70_000.0 + i, 80_000.0]) for i in range(3)]
        )
        late = index.slot_of(70_000.0)
        start_a, length_a = record_start(index, a, late)
        assert record_start(index, b, late)[0] == start_a + length_a
        appended = disk_order(index)[built:]
        assert len(appended) == 4 and appended == sorted(appended)

    def test_the_test_city_is_written_road_major(self, built):
        """Re-segmented roads whose twins are not neighbouring ids too."""
        order = disk_order(built.st_index(300))
        assert order == sorted(order)
        assert len({road for road, _, _ in order}) < len(built.network.csr().ids)


def per_segment_copy(index: STIndex) -> STIndex:
    """``index``'s records re-appended in ``(segment, slot)`` order on a fresh
    disk: the record order every store was written in before road-major."""
    disk = SimulatedDisk(page_size=index.disk.page_size)
    store = PageStore(disk)
    columns = index.directory.columns()
    pointers = zip(*(columns[name].tolist() for name in DIRECTORY_COLUMNS[3:]))
    rows = [
        tuple(store.append(index.disk.extent_bytes([first_page], [offset], [length])))
        for first_page, _, offset, length in pointers
    ]
    store.flush()
    columns.update(zip(DIRECTORY_COLUMNS[3:], np.array(rows, dtype=np.int64).T))
    directory = TimeListDirectory.from_columns(
        columns, index.num_slots, disk.num_pages, disk.page_size, "per-segment copy"
    )
    return STIndex.restore(index.network, index.delta_t_s, disk, directory, 1024)


class TestPerSegmentStores:
    def test_a_per_segment_store_opens_and_answers_unchanged(
        self, test_dataset, built, tmp_path
    ):
        copy = per_segment_copy(built.st_index(300))
        # The copy really is per segment: a segment's slots lie back to back.
        order = disk_order(copy)
        assert order != sorted(order)
        columns = copy.directory.columns()
        ends = columns["dir_first_page"] * copy.disk.page_size + columns["dir_offset"]
        assert (ends[1:] == (ends + columns["dir_length"])[:-1]).all()
        old = ReachabilityEngine(test_dataset.network, test_dataset.database, disk=copy.disk)
        old.install_st_index(300, copy)
        reopened = open_store(save_store(old, tmp_path / "per-segment", 300))
        points = [point for _, point in sorted(test_dataset.network.nodes())][::7]
        queries = [
            SQuery(point, day_time(hour), duration, 0.2)
            for point, hour, duration in zip(points, (8, 11, 17, 23) * 4, (300, 600, 900) * 6)
        ]
        assert len(queries) >= 4
        for query in queries:
            ours, theirs = s_query(built, query), s_query(reopened, query)
            assert theirs.segments == ours.segments
            assert theirs.probabilities == ours.probabilities
        reopened.disk.close()


class TestSegmentsTheNetworkLacks:
    def test_an_append_files_them_as_roads_of_their_own(self, network):
        """Visits on an id the network lacks are kept, read back and counted
        like any segment's, after the network's roads on disk."""
        known = sorted(network.segment_ids())
        lacking = known[-1] + 7
        database = TrajectoryDatabase(num_taxis=1, num_days=2)
        database.add_arrays(1, 0, 0, known[:4], [100.0, 200.0, 400.0, 900.0], [5.0] * 4)
        vector = STIndex(network, 300, disk=SimulatedDisk(page_size=64))
        scalar = STIndex(network, 300, disk=SimulatedDisk(page_size=64))
        vector.build(database)
        scalar_build(scalar, database)
        batch = [
            MatchedTrajectory(
                5, 0, 1, [SegmentVisit(s, 1_000.0, 5.0) for s in (lacking, known[0])]
            ),
            MatchedTrajectory(6, 0, 1, [SegmentVisit(lacking, 1_300.0, 5.0)]),
        ]
        assert vector.append_trajectories(batch) == scalar_append(scalar, batch) == 3
        assert vector.disk.export_state() == scalar.disk.export_state()
        assert vector.time_entries(lacking, 3) == {1: [(5, 1_000)]}
        assert vector.time_entries(lacking, 4) == {1: [(6, 1_300)]}
        assert vector.time_entries(known[0], 3) == {1: [(5, 1_000)]}
        order = road_order(network)
        assert disk_order(vector)[-2:] == [(order(lacking)[0], 3, 0), (order(lacking)[0], 4, 0)]
