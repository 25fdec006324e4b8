"""Tests for the Spatio-Temporal Index (§3.2.1)."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.st_index import STIndex, decode_time_list_columns
from reference.legacy_probability import trajectories_in_window
from reference.st_index_build import decode_time_list, encode_time_list
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
        decoded = decode_time_list_columns(encode_time_list(per_date)).per_date(0)
        # A date without visits (no writer emits one) is simply absent.
        assert decoded == {
            0: [(2, 40), (5, 120), (9, 299)],
            3: [(1, 0)],
        }

    def test_offsets_from_the_slot_start(self):
        per_date = {4: [(7, 36_000), (8, 36_299)]}
        payload = encode_time_list(per_date, slot_start=36_000)
        decoded = decode_time_list_columns(payload)
        assert decoded.offsets.tolist() == [0, 299]
        assert decoded.per_date(36_000) == per_date

    def test_empty(self):
        assert decode_time_list_columns(encode_time_list({})).per_date(0) == {}

    def test_misaligned_rejected(self):
        with pytest.raises(SerializationError):
            decode_time_list_columns(b"\x01\x00\x00")

    def test_truncated_rejected(self):
        payload = encode_time_list({1: [(2, 10), (3, 20)]})
        with pytest.raises(SerializationError):
            decode_time_list_columns(payload[:-2])

    def test_narrow_and_wide_records_in_one_call(self):
        """Each record takes its own widths, as an appended record beside a
        bulk one does: one call decodes them all, each as it would alone."""
        records = [
            {3: [(1, 10), (2, 20)]},  # all narrow
            {3: [(1_000_000, 10)], 4: [(5, 11)]},  # wide ids
            {70_000: [(1, 65_536)], 1: [(0xFFFF, 0)]},  # wide dates and offsets
            {9: [(2, 30)]},
        ]
        payloads = [encode_time_list(per_date) for per_date in records]
        assert [struct.unpack_from("<H", p)[0] for p in payloads] == [0, 0b1000, 0b10010, 0]
        batch = decode_time_list_columns(b"".join(payloads), [len(p) for p in payloads])
        assert batch.record_ends.tolist() == [2, 4, 6, 7]
        begin = 0
        for per_date, end in zip(records, batch.record_ends.tolist()):
            one = decode_time_list_columns(encode_time_list(per_date))
            assert batch.keys[begin:end].tolist() == one.keys.tolist()
            assert batch.offsets[begin:end].tolist() == one.offsets.tolist()
            assert one.per_date(0) == expected_per_date(per_date)
            begin = end


#: Both sides of the 16-bit boundary, besides draws from the whole range.
EDGES = (0xFFFF, 0x10000)
ID_TOP, DATE_TOP = (1 << 32) - 1, (1 << 31) - 1


def around_edge(top):
    return st.one_of(st.sampled_from(EDGES), st.integers(0, 0xFFFF), st.integers(0, top))


#: Records at Δt = 86,400 (the slot starts at 0), so offsets reach 86,399.
RECORDS = st.dictionaries(
    around_edge(DATE_TOP),
    st.lists(st.tuples(around_edge(ID_TOP), around_edge(SECONDS_PER_DAY - 1)), max_size=5),
    max_size=4,
)


@st.composite
def edge_records(draw):
    """One record whose num_dates, dates, counts, ids and second offsets
    each fall on a drawn side of 65,535 / 65,536: one date holds
    ``count`` visits, the others none."""
    num_dates = draw(st.sampled_from((1, 3, *EDGES)))
    count = draw(st.one_of(st.integers(1, 3), st.sampled_from(EDGES)))
    last_date = draw(around_edge(DATE_TOP).filter(lambda date: date >= num_dates - 1))
    busy = last_date - draw(st.integers(0, num_dates - 1))
    first_id = draw(around_edge(ID_TOP - count + 1).filter(lambda i: i <= ID_TOP - count + 1))
    first_second = draw(around_edge(SECONDS_PER_DAY - 1))
    per_date = {date: [] for date in range(last_date - num_dates + 1, last_date + 1)}
    per_date[busy] = [
        (first_id + k, (first_second + k) % SECONDS_PER_DAY) for k in range(count)
    ]
    return per_date


def expected_per_date(per_date):
    return {date: sorted(visits) for date, visits in per_date.items() if visits}


def words(*values):
    return struct.pack(f"<{len(values)}H", *values)


class TestGeneratedCodec:
    """The vector decoder against the reference encoder and decoder, one
    record at a time and as back-to-back batches, plus corrupt records."""

    @settings(max_examples=150, deadline=None)
    @given(RECORDS)
    def test_one_record_round_trip(self, per_date):
        payload = encode_time_list(per_date)
        decoded = decode_time_list_columns(payload)
        assert decoded.per_date(0) == expected_per_date(per_date)
        assert expected_per_date(decode_time_list(payload)) == expected_per_date(per_date)
        assert decoded.record_ends.tolist() == [decoded.num_visits]

    @settings(max_examples=40, deadline=None)
    @given(edge_records(), RECORDS)
    def test_every_block_crosses_sixteen_bits(self, per_date, narrow):
        """Each block narrow or wide on its own, and a record of each
        width in one call."""
        payloads = [encode_time_list(per_date), encode_time_list(narrow)]
        values = struct.unpack(f"<{len(payloads[0]) // 2}H", payloads[0])
        (count,) = [len(visits) for visits in per_date.values() if visits]
        wide = [
            len(per_date) > 0xFFFF,
            max(per_date) > 0xFFFF,
            count > 0xFFFF,
            max(i for visits in per_date.values() for i, _ in visits) > 0xFFFF,
            max(s for visits in per_date.values() for _, s in visits) > 0xFFFF,
        ]
        assert values[0] == sum(flag << bit for bit, flag in enumerate(wide))
        batch = decode_time_list_columns(b"".join(payloads), [len(p) for p in payloads])
        first = batch.record_ends[0]
        assert batch.record_ends.tolist() == [count, batch.num_visits]
        one = decode_time_list_columns(payloads[0])
        assert batch.keys[:first].tolist() == one.keys.tolist()
        assert one.per_date(0) == expected_per_date(per_date)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(RECORDS, max_size=8))
    def test_batch_round_trip(self, records):
        payloads = [encode_time_list(per_date) for per_date in records]
        batch = decode_time_list_columns(b"".join(payloads), [len(p) for p in payloads])
        begin = 0
        for per_date, end in zip(records, batch.record_ends.tolist()):
            one = decode_time_list_columns(encode_time_list(per_date))
            assert batch.keys[begin:end].tolist() == one.keys.tolist()
            assert batch.offsets[begin:end].tolist() == one.offsets.tolist()
            assert one.per_date(0) == expected_per_date(per_date)
            begin = end
        assert begin == batch.num_visits == batch.keys.size == batch.offsets.size

    @settings(max_examples=100, deadline=None)
    @given(RECORDS.filter(bool), st.data())
    def test_every_truncation_rejected(self, per_date, data):
        payload = encode_time_list(per_date)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(SerializationError):
            decode_time_list_columns(payload[:cut])

    @settings(max_examples=100, deadline=None)
    @given(RECORDS, st.integers(1, 3))
    def test_trailing_words_rejected(self, per_date, extra):
        payload = encode_time_list(per_date) + b"\x00" * 2 * extra
        with pytest.raises(SerializationError):
            decode_time_list_columns(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            words(0, 0xFFFF, 3, 1, 7, 10),  # num_dates far past the record
            words(0b1, 0xFFFF, 0xFFFF, 3, 1, 7, 10),  # a wide num_dates, farther
            words(0b1, 1),  # a wide num_dates cut after its low half
            words(0b100, 1, 3, 0xFFFF, 0xFFFF, 7, 10),  # a huge (wide) count
            words(0, 2, 3, 4, 2, 2, 7, 8, 10, 11),  # counts sum to 4, room for 2
            words(0, 2, 3, 4, 1, 0, 7, 8, 10, 11),  # counts sum to 1, room for 2
            words(0, 1, 3, 1, 7),  # odd number of visit words
            words(0b1000, 1, 3, 1, 7, 0, 10, 0),  # wide ids: 3 words a visit, not 4
            words(1 << 5, 1, 3, 1, 7, 10),  # a flag for a sixth block
            words(0),  # a head alone
            b"\x00\x00\x01",  # an odd byte length
        ],
        ids=[
            "num-dates-max", "wide-num-dates-max", "wide-num-dates-cut", "huge-count",
            "counts-over", "counts-under", "odd-visits", "wide-id-visits",
            "unknown-head-bit", "head-only", "odd-bytes",
        ],
    )
    def test_corrupt_header_rejected_without_allocating(self, payload):
        tracemalloc.start()
        try:
            with pytest.raises(SerializationError):
                decode_time_list_columns(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_corrupt_record_in_a_batch_rejected(self):
        good = encode_time_list({1: [(2, 10)]})
        bad = words(0b100, 1, 3, 0xFFFF, 0xFFFF, 7, 10)
        with pytest.raises(SerializationError):
            decode_time_list_columns(good + bad + good, [len(good), len(bad), len(good)])
        with pytest.raises(SerializationError):  # lengths short of the payload
            decode_time_list_columns(good + good, [len(good)])
        with pytest.raises(SerializationError):  # an odd record length
            decode_time_list_columns(good + good, [len(good) - 1, len(good) + 1])


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
        pairs, rows = index.directory.probe((5, 99), (0,))
        assert pairs.tolist() == [0] and rows.shape == (1, 4)

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
        window = trajectories_in_window(index, 5, 0, 600)
        assert window == {0: {0, 1}}
        wide = trajectories_in_window(index, 5, 0, 900)
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
        assert trajectories_in_window(index, 5, 0, 200) == {0: {0}}
        assert trajectories_in_window(index, 5, 150, 300) == {0: {1}}
        assert trajectories_in_window(index, 5, 0, 300) == {0: {0, 1}}

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
