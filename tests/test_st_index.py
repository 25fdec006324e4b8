"""Tests for the Spatio-Temporal Index (§3.2.1)."""

import pytest

from repro.core.st_index import (
    STIndex,
    decode_time_list_columns,
    encode_time_list,
)
from repro.network.generator import grid_city
from repro.storage.serialization import SerializationError
from repro.trajectory.model import (
    MatchedTrajectory,
    SECONDS_PER_DAY,
    SegmentVisit,
    day_time,
)
from repro.trajectory.store import TrajectoryDatabase
from repro.spatial.geometry import Point


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


def db_with(network, visits_by_traj, num_taxis=8, num_days=5):
    db = TrajectoryDatabase(num_taxis, num_days)
    for (tid, taxi, date), visits in visits_by_traj.items():
        db.add(
            MatchedTrajectory(
                trajectory_id=tid, taxi_id=taxi, date=date,
                visits=[SegmentVisit(*v) for v in visits],
            )
        )
    db.finalize()
    return db


class TestTimeListCodec:
    """The one decoder plus the dict view derived from its columns."""

    def test_roundtrip(self):
        per_date = {0: [(5, 120), (2, 40), (9, 299)], 3: [(1, 0)], 29: []}
        decoded = decode_time_list_columns(encode_time_list(per_date)).per_date()
        # A date without visits (no writer emits one) is simply absent.
        assert decoded == {
            0: [(2, 40), (5, 120), (9, 299)],
            3: [(1, 0)],
        }

    def test_empty(self):
        assert decode_time_list_columns(encode_time_list({})).per_date() == {}

    def test_misaligned_rejected(self):
        with pytest.raises(SerializationError):
            decode_time_list_columns(b"\x01\x00\x00")

    def test_truncated_rejected(self):
        payload = encode_time_list({1: [(2, 10), (3, 20)]})
        with pytest.raises(SerializationError):
            decode_time_list_columns(payload[:-4])


class TestSlots:
    def test_bad_delta_t(self, network):
        with pytest.raises(ValueError):
            STIndex(network, 0)
        with pytest.raises(ValueError):
            STIndex(network, SECONDS_PER_DAY + 1)

    def test_slot_of(self, network):
        index = STIndex(network, 300)
        assert index.slot_of(0) == 0
        assert index.slot_of(299) == 0
        assert index.slot_of(300) == 1
        assert index.slot_of(day_time(11)) == 132
        assert index.slot_of(SECONDS_PER_DAY + 100) == index.num_slots - 1

    def test_num_slots(self, network):
        assert STIndex(network, 300).num_slots == 288
        assert STIndex(network, 60).num_slots == 1440
        assert STIndex(network, 1200).num_slots == 72

    def test_slots_in_window(self, network):
        index = STIndex(network, 300)

        def slots_in_window(start_s, end_s):
            return [
                slot
                for _, _, first, last in index.window_plan(start_s, end_s)
                for slot in range(first, last + 1)
            ]

        assert slots_in_window(0, 300) == [0]
        assert slots_in_window(0, 301) == [0, 1]
        assert slots_in_window(150, 750) == [0, 1, 2]
        assert slots_in_window(100, 100) == []
        # window extending past midnight wraps into the day's first slots
        late = slots_in_window(SECONDS_PER_DAY - 100, SECONDS_PER_DAY + 500)
        assert late == [287, 0, 1]
        # a full-day (or longer) window covers every slot exactly once
        full = slots_in_window(3600, 3600 + SECONDS_PER_DAY)
        assert full == list(range(index.num_slots))


class TestBuildAndRead:
    def test_build_and_read_time_lists(self, network):
        db = db_with(network, {
            (0, 0, 0): [(5, 100.0, 3.0), (6, 400.0, 3.0)],
            (8, 0, 1): [(5, 120.0, 3.0)],
            (1, 1, 0): [(5, 200.0, 3.0)],
        })
        index = STIndex(network, 300)
        index.build(db)
        assert index.time_list(5, 0) == {0: {0, 1}, 1: {8}}
        assert index.time_list(6, 1) == {0: {0}}
        assert index.time_list(6, 0) == {}
        assert len(index.directory) == 2
        assert index.directory.probe((5, 99), (0,))[1] == ()

    def test_double_build_rejected(self, network):
        db = db_with(network, {(0, 0, 0): [(5, 100.0, 3.0)]})
        index = STIndex(network, 300)
        index.build(db)
        with pytest.raises(RuntimeError):
            index.build(db)

    def test_duplicate_visits_deduplicated(self, network):
        db = db_with(network, {
            (0, 0, 0): [(5, 100.0, 3.0), (5, 150.0, 3.0)],
        })
        index = STIndex(network, 300)
        index.build(db)
        assert index.time_list(5, 0) == {0: {0}}

    def test_trajectories_in_window_merges_slots(self, network):
        db = db_with(network, {
            (0, 0, 0): [(5, 100.0, 3.0)],
            (1, 1, 0): [(5, 400.0, 3.0)],
            (2, 2, 1): [(5, 700.0, 3.0)],
        })
        index = STIndex(network, 300)
        index.build(db)
        window = index.trajectories_in_window(5, 0, 600)
        assert window == {0: {0, 1}}
        wide = index.trajectories_in_window(5, 0, 900)
        assert wide == {0: {0, 1}, 1: {2}}

    def test_partial_slot_window_is_exact(self, network):
        db = db_with(network, {
            (0, 0, 0): [(5, 100.0, 3.0)],
            (1, 1, 0): [(5, 250.0, 3.0)],
        })
        index = STIndex(network, 300)
        index.build(db)
        # Windows that cut a slot filter by the stored visit seconds
        # instead of rounding out to the whole slot.
        assert index.trajectories_in_window(5, 0, 200) == {0: {0}}
        assert index.trajectories_in_window(5, 150, 300) == {0: {1}}
        assert index.trajectories_in_window(5, 0, 300) == {0: {0, 1}}

    def test_reads_charge_io(self, network):
        db = db_with(network, {(0, 0, 0): [(5, 100.0, 3.0)]})
        index = STIndex(network, 300)
        index.build(db)
        index.pool.invalidate()
        before = index.disk.snapshot()
        index.time_list(5, 0)
        assert (index.disk.snapshot() - before).page_reads >= 1
        # Absence proof costs nothing.
        before = index.disk.snapshot()
        index.time_list(5, 99)
        assert (index.disk.snapshot() - before).page_reads == 0

    def test_stats_populated(self, network):
        db = db_with(network, {(0, 0, 0): [(5, 100.0, 3.0), (6, 400.0, 3.0)]})
        index = STIndex(network, 300)
        index.build(db)
        assert index.stats.num_entries == 2
        assert index.stats.num_slots == 288
        assert index.stats.disk_pages >= 1


class TestStartSegmentLookup:
    def test_find_start_segment_matches_linear(self, network):
        index = STIndex(network, 300)
        for probe in (Point(0, 0), Point(500, 300), Point(-700, 900)):
            found = index.find_start_segment(probe)
            best = network.nearest_segment_linear(probe)
            assert network.segment(found).distance_to_point(probe) == pytest.approx(
                network.segment(best).distance_to_point(probe)
            )
