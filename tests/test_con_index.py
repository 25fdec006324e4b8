"""Tests for the Connection Index (§3.2.2)."""

import pytest

from repro.core.con_index import (
    ConnectionIndex,
    FrontierEntry,
    decode_entry,
    encode_entry,
)
from repro.network.generator import grid_city
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


@pytest.fixture(scope="module")
def database(network):
    """Every segment observed at hour 11 with speed 6 m/s (uniform city)."""
    db = TrajectoryDatabase(num_taxis=4, num_days=2)
    t = float(day_time(11))
    visits = [
        SegmentVisit(sid, t + i, 6.0)
        for i, sid in enumerate(sorted(network.segment_ids()))
    ]
    db.add(MatchedTrajectory(0, 0, 0, visits))
    db.finalize()
    return db


class TestEntryCodec:
    def test_roundtrip(self):
        entry = FrontierEntry(frontier=(3, 1, 2), cover=frozenset({1, 2, 3, 9}))
        decoded = decode_entry(encode_entry(entry))
        assert decoded.frontier == (1, 2, 3)
        assert decoded.cover == {1, 2, 3, 9}

    def test_empty(self):
        entry = FrontierEntry(frontier=(), cover=frozenset())
        assert decode_entry(encode_entry(entry)) == entry


class TestConnectionIndex:
    def test_bad_delta_t(self, network, database):
        with pytest.raises(ValueError):
            ConnectionIndex(network, database, 0)

    def test_far_superset_of_near(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        for sid in list(network.segment_ids())[:10]:
            far = con.far(sid, slot)
            near = con.near(sid, slot)
            assert near.cover <= far.cover

    def test_cover_contains_start(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        entry = con.far(0, slot)
        assert 0 in entry.cover
        assert set(entry.frontier) <= entry.cover

    def test_uniform_speed_cover_radius(self, network, database):
        # 600 m at 6 m/s = 100 s per segment; Δt=300 s -> 3 hops.
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        entry = con.far(0, slot)
        from repro.network.expansion import time_bounded_expansion

        expected = time_bounded_expansion(
            network, 0, 300.0, lambda sid: 100.0
        )
        assert entry.cover == expected.cover

    def test_unobserved_slot_impassable(self, network, database):
        # No data at hour 3 (and neighbours): only the start remains.
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(3))
        entry = con.far(0, slot)
        assert entry.cover == {0}

    def test_memoized_entry_identical(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        first = con.far(0, slot)
        expansions = con.expansions
        second = con.far(0, slot)
        assert second == first
        assert con.expansions == expansions  # cached, no recompute

    def test_entry_survives_decoded_cache_eviction(self, network, database):
        con = ConnectionIndex(network, database, 300, entry_cache_size=1)
        slot = con.slot_of(day_time(11))
        first = con.far(0, slot)
        con.far(1, slot)  # evicts the decoded entry for segment 0
        again = con.far(0, slot)
        assert again == first
        assert con.expansions == 2  # re-read from disk, not re-expanded

    def test_slot_wraps_modulo_day(self, network, database):
        con = ConnectionIndex(network, database, 300)
        entry_a = con.entry(0, 5, "far")
        entry_b = con.entry(0, 5 + con.num_slots, "far")
        assert entry_a == entry_b

    def test_precompute_counts(self, network, database):
        con = ConnectionIndex(network, database, 300)
        built = con.precompute(segment_ids=[0, 1], slots=[0, 1], kinds=("far",))
        assert built == 4
        assert con.num_entries == 4

    def test_near_uses_min_speed(self, network):
        # Two observations: slow 1 m/s and fast 12 m/s.
        db = TrajectoryDatabase(num_taxis=2, num_days=1)
        t = float(day_time(11))
        segs = sorted(network.segment_ids())
        db.add(MatchedTrajectory(0, 0, 0, [SegmentVisit(s, t, 1.0) for s in segs]))
        db.add(MatchedTrajectory(1, 1, 0, [SegmentVisit(s, t + 1, 12.0) for s in segs]))
        db.finalize()
        con = ConnectionIndex(network, db, 300)
        slot = con.slot_of(t)
        near = con.near(0, slot)
        far = con.far(0, slot)
        # 600 m at 1 m/s = 600 s > 300 s: near cover is just the start.
        assert near.cover == {0}
        # 600 m at 12 m/s = 50 s: far cover reaches 6 hops.
        assert len(far.cover) > 10


class TestTravelTimeCache:
    def test_fill_after_invalidate(self, network, database):
        """invalidate_entries drops the travel-time caches; the refill
        equals the first fill, and the list cache follows its vector."""
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        expected = con.travel_time_vector("far", slot).copy()
        for _ in range(3):
            con.invalidate_entries()
            vector = con.travel_time_vector("far", slot)
            assert con.travel_time_list("far", slot) == vector.tolist()
        assert vector.tolist() == expected.tolist()

    def test_num_entries_counts_materialised(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        con.entry(0, slot, "far")
        assert con.num_entries == 1
