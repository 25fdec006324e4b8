"""Tests for the Connection Index (§3.2.2)."""

import numpy as np
import pytest

from repro.api.client import ReachabilityClient
from repro.api.envelope import QueryOptions, Request
from repro.core import con_index
from repro.core.con_index import ConnectionIndex
from repro.core.engine import ReachabilityEngine
from repro.eval.workload import QueryWorkload
from repro.io.persist import current_bundle, save_store
from repro.network.generator import grid_city
from repro.storage.backends import FileBackedDisk
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase
from reference.min_speed_index import MinSpeedConnectionIndex


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


def ids(entry: np.ndarray) -> set[int]:
    return set(entry.tolist())


class TestConnectionIndex:
    def test_bad_delta_t(self, network, database):
        with pytest.raises(ValueError):
            ConnectionIndex(network, database, 0)

    def test_far_superset_of_near(self, network):
        """Each Near entry (minimum speeds) lies in the Far entry of the same
        segment and slot: costs no smaller reach no more roads."""
        db = TrajectoryDatabase(num_taxis=2, num_days=1)
        t = float(day_time(11))
        segs = sorted(network.segment_ids())
        db.add(MatchedTrajectory(0, 0, 0, [SegmentVisit(s, t, 3.0) for s in segs]))
        db.add(MatchedTrajectory(1, 1, 0, [SegmentVisit(s, t + 1, 12.0) for s in segs]))
        db.finalize()
        con = ConnectionIndex(network, db, 300)
        near_con = MinSpeedConnectionIndex(network, db, 300)
        slot = con.slot_of(t)
        for sid in segs:
            for kind in ("far", "far_rev"):
                near = near_con.entry(sid, slot, kind)
                far = con.entry(sid, slot, kind)
                assert ids(near) <= ids(far)
                assert len(near) < len(far) or len(far) == len(segs)

    def test_cover_contains_start(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        entry = con.entry(0, slot, "far")
        assert 0 in ids(entry)

    def test_entry_is_a_sorted_read_only_id_array(self, network, database):
        con = ConnectionIndex(network, database, 300)
        entry = con.entry(5, con.slot_of(day_time(11)), "far")
        assert entry.dtype == np.int64
        assert entry.tolist() == sorted(ids(entry))
        assert len(entry) > 1
        assert not entry.flags.writeable
        with pytest.raises(ValueError):
            entry[0] = 7

    def test_uniform_speed_cover_radius(self, network, database):
        # 600 m at 6 m/s = 100 s per segment; Δt=300 s -> 3 hops.
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        entry = con.entry(0, slot, "far")
        from repro.network.expansion import time_bounded_expansion

        expected = time_bounded_expansion(
            network, 0, 300.0, lambda sid: 100.0
        )
        assert ids(entry) == expected.cover

    def test_unobserved_slot_impassable(self, network, database):
        # No data at hour 3 (and neighbours): only the start remains.
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(3))
        entry = con.entry(0, slot, "far")
        assert entry.tolist() == [0]

    def test_memoized_entry_identical(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        first = con.entry(0, slot, "far")
        expansions = con.expansions
        second = con.entry(0, slot, "far")
        assert second is first
        assert con.expansions == expansions  # cached, no recompute

    def test_an_evicted_entry_is_recomputed_equal(self, network, database, monkeypatch):
        monkeypatch.setattr(con_index, "ENTRY_CACHE_SIZE", 1)
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        first = con.entry(0, slot, "far")
        con.entry(1, slot, "far")  # evicts the entry for segment 0
        assert con.num_entries == 1
        again = con.entry(0, slot, "far")
        assert again is not first
        assert np.array_equal(again, first)
        assert con.expansions == 3  # the evicted entry was expanded again

    def test_slot_wraps_modulo_day(self, network, database):
        con = ConnectionIndex(network, database, 300)
        entry_a = con.entry(0, 5, "far")
        entry_b = con.entry(0, 5 + con.num_slots, "far")
        assert entry_b is entry_a

    def test_precompute_counts(self, network, database):
        con = ConnectionIndex(network, database, 300)
        built = con.precompute(segment_ids=[0, 1], slots=[0, 1])
        assert built == 4
        assert con.num_entries == 4

    def test_precompute_builds_far_entries_only(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        built = con.precompute(slots=[slot])
        assert built == network.num_segments == con.num_entries
        assert {kind for kind, _, _ in con._entries} == {"far"}

    def test_far_uses_max_speed(self, network):
        # Two observations: slow 1 m/s and fast 12 m/s.
        db = TrajectoryDatabase(num_taxis=2, num_days=1)
        t = float(day_time(11))
        segs = sorted(network.segment_ids())
        db.add(MatchedTrajectory(0, 0, 0, [SegmentVisit(s, t, 1.0) for s in segs]))
        db.add(MatchedTrajectory(1, 1, 0, [SegmentVisit(s, t + 1, 12.0) for s in segs]))
        db.finalize()
        con = ConnectionIndex(network, db, 300)
        slot = con.slot_of(t)
        far = con.entry(0, slot, "far")
        # 600 m at 12 m/s = 50 s: far cover reaches 6 hops (at 1 m/s it
        # would be the start alone).
        assert len(far) > 10


    def test_invalidate_entries_rebuilds_equal_entries(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        first = con.entry(0, slot, "far")
        con.invalidate_entries()
        assert con.num_entries == 0
        again = con.entry(0, slot, "far")
        assert again is not first
        assert np.array_equal(again, first)
        assert con.expansions == 2


@pytest.mark.parametrize("kind", ["far", "far_rev"])
def test_every_entry_is_its_expansion_cover(network, kind):
    """Each entry is the expansion's cover, sorted, for every segment and
    direction (forward and reverse)."""
    from repro.network.expansion import time_bounded_expansion

    db = TrajectoryDatabase(num_taxis=2, num_days=1)
    t = float(day_time(11))
    segs = sorted(network.segment_ids())
    db.add(MatchedTrajectory(0, 0, 0, [SegmentVisit(s, t, 2.0 + s % 5) for s in segs]))
    db.add(MatchedTrajectory(1, 1, 0, [SegmentVisit(s, t + 1, 9.0 + s % 3) for s in segs]))
    db.finalize()
    con = ConnectionIndex(network, db, 300)
    slot = con.slot_of(t)
    vector = con.travel_time_vector(slot)
    sizes = set()
    for sid in segs:
        expected = time_bounded_expansion(
            network, sid, 300.0, vector, reverse=kind.endswith("_rev")
        ).cover
        entry = con.entry(sid, slot, kind)
        assert entry.tolist() == sorted(expected)
        sizes.add(len(entry))
    assert con.expansions == len(segs)
    assert len(sizes) > 1  # the speeds vary, so the covers do


@pytest.mark.parametrize(
    "option", [{"disk": None}, {"buffer_pool_pages": 64}, {"compressed": True}]
)
def test_the_page_store_options_are_gone(network, database, option):
    with pytest.raises(TypeError):
        ConnectionIndex(network, database, 300, **option)


class TestTravelTimeCache:
    def test_fill_after_invalidate(self, network, database):
        """invalidate_entries drops the travel-time caches; the refill
        equals the first fill, and the list cache follows its vector."""
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        expected = con.travel_time_vector(slot).copy()
        for _ in range(3):
            con.invalidate_entries()
            vector = con.travel_time_vector(slot)
            assert con.travel_time_list(slot) == vector.tolist()
        assert vector.tolist() == expected.tolist()

    def test_num_entries_counts_materialised(self, network, database):
        con = ConnectionIndex(network, database, 300)
        slot = con.slot_of(day_time(11))
        con.entry(0, slot, "far")
        assert con.num_entries == 1


def mixed_requests(network):
    """s- and m-queries plus reverse traffic, every route that reads the
    Con-Index."""
    workload = QueryWorkload(network, seed=23)
    requests = [Request(q) for q in workload.mixed_batch(6, 2, start_time_s=8 * 3600)]
    return requests + [
        Request(q, QueryOptions(direction="reverse"))
        for q in workload.s_queries(2, start_time_s=9 * 3600, salt="reverse")
    ]


def digest(report):
    return [
        (r.segments, r.probabilities, r.max_region)
        for r in report.results
    ]


class TestHeldInMemory:
    """The Con-Index is derived, memory-resident state: no query writes a
    page, and the entry LRU's size changes no answer."""

    def test_a_cold_batch_writes_no_page_on_a_ram_engine(self, test_dataset):
        engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
        engine.st_index(300)
        pages, writes = engine.disk.num_pages, engine.disk.snapshot().page_writes
        client = ReachabilityClient(engine)
        client.run_batch(mixed_requests(test_dataset.network))
        client.send(mixed_requests(test_dataset.network)[0])
        assert engine.con_index(300).expansions > 0
        assert engine.disk.num_pages == pages
        assert engine.disk.snapshot().page_writes == writes

    def test_an_opened_store_stays_synced_and_reusable(self, test_dataset, tmp_path):
        fresh = ReachabilityEngine(test_dataset.network, test_dataset.database)
        fresh.st_index(300)
        bundle = save_store(fresh, tmp_path / "bundle", 300)
        requests = mixed_requests(test_dataset.network)
        with ReachabilityClient.open(bundle) as client:
            engine = client.engine
            assert isinstance(engine.disk, FileBackedDisk)
            pages, writes = engine.disk.num_pages, engine.disk.snapshot().page_writes
            client.send(requests[0])
            client.run_batch(requests)
            assert engine.con_index(300).expansions > 0
            assert engine.disk.num_pages == pages
            assert engine.disk.snapshot().page_writes == writes
            assert engine.disk.is_synced
            assert current_bundle(engine, 300) == bundle.resolve()
            engine.disk.close()

    def test_the_engine_buffer_pools_are_the_st_index_pools(self, test_dataset):
        engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
        indexes = [engine.st_index(300), engine.st_index(600)]
        ReachabilityClient(engine).run_batch(mixed_requests(test_dataset.network))
        assert engine.con_index(300).num_entries > 0
        pools = list(engine.buffer_pools())
        assert len(pools) == len(indexes)
        assert all(any(pool is index.pool for index in indexes) for pool in pools)

    def test_a_one_entry_lru_recomputes_the_same_answers(self, test_dataset, monkeypatch):
        def run():
            engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
            report = ReachabilityClient(engine).run_batch(mixed_requests(test_dataset.network))
            return digest(report), engine.con_index(300)

        expected, roomy = run()
        monkeypatch.setattr(con_index, "ENTRY_CACHE_SIZE", 1)
        answers, tight = run()
        assert answers == expected
        assert tight.num_entries == 1
        assert tight.expansions > roomy.expansions == roomy.num_entries
