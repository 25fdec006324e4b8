"""Tests for query explanation and Con-Index compression."""

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.client_protocol import m_query, s_query
from repro.core.con_index import (
    ConnectionIndex,
    FrontierEntry,
    decode_entry_compressed,
    encode_entry,
    encode_entry_compressed,
)
from repro.core.explain import explain_m_query, explain_s_query
from repro.core.query import MQuery, SQuery
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


class TestExplain:
    def test_s_query_stages(self, engine):
        explanation = explain_s_query(engine, SQuery(CENTER, T, 600, 0.2))
        names = [stage.name for stage in explanation.stages]
        assert names == [
            "start-segment lookup",
            "start time-list read",
            "max bounding region",
            "min bounding region",
            "trace-back search",
        ]
        assert explanation.max_cover >= explanation.min_cover
        assert explanation.region_segments >= 0
        assert explanation.examined >= 0

    def test_explanation_matches_query(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        explanation = explain_s_query(engine, query)
        result = s_query(engine, query)
        assert explanation.region_segments == len(result.segments)
        assert explanation.max_cover == len(result.max_region.cover)

    def test_text_rendering(self, engine):
        explanation = explain_s_query(engine, SQuery(CENTER, T, 600, 0.2))
        text = explanation.to_text()
        assert "QUERY PLAN" in text
        assert "trace-back search" in text
        assert "region=" in text

    def test_dead_query_short_plan(self, engine, test_dataset):
        bounds = test_dataset.network.bounds()
        corner = Point(bounds.max_x, bounds.max_y)
        explanation = explain_s_query(
            engine, SQuery(corner, day_time(3, 1), 300, 1.0)
        )
        # A query with no start trajectories stops after two stages.
        assert len(explanation.stages) <= 2 or explanation.region_segments >= 0

    def test_m_query_stages(self, engine):
        query = MQuery((CENTER, Point(1000.0, 600.0)), T, 600, 0.2)
        explanation = explain_m_query(engine, query)
        assert explanation.stages[0].name == "start-segment lookup"
        assert explanation.stages[-1].name == "trace-back search"
        result = m_query(engine, query)
        assert explanation.region_segments == len(result.segments)


class TestCompressedCodec:
    def test_roundtrip(self):
        entry = FrontierEntry(
            frontier=(5, 1, 99), cover=frozenset({1, 5, 99, 100, 101})
        )
        decoded = decode_entry_compressed(encode_entry_compressed(entry))
        assert decoded.frontier == (1, 5, 99)
        assert decoded.cover == entry.cover

    def test_empty(self):
        entry = FrontierEntry(frontier=(), cover=frozenset())
        assert decode_entry_compressed(encode_entry_compressed(entry)) == entry

    def test_clustered_ids_compress_well(self):
        entry = FrontierEntry(
            frontier=tuple(range(880, 890)),
            cover=frozenset(range(850, 950)),
        )
        flat = encode_entry(entry)
        compressed = encode_entry_compressed(entry)
        assert len(compressed) < len(flat) / 2

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(0, 100_000), max_size=200))
    def test_roundtrip_property(self, ids):
        frontier = tuple(sorted(ids))[:10]
        entry = FrontierEntry(frontier=frontier, cover=frozenset(ids))
        decoded = decode_entry_compressed(encode_entry_compressed(entry))
        assert decoded.cover == entry.cover
        assert decoded.frontier == tuple(sorted(frontier))


class TestCompressedIndex:
    def test_same_entries_both_codecs(self, test_dataset):
        flat = ConnectionIndex(
            test_dataset.network, test_dataset.database, 300
        )
        packed = ConnectionIndex(
            test_dataset.network, test_dataset.database, 300, compressed=True
        )
        slot = flat.slot_of(T)
        for sid in list(test_dataset.network.segment_ids())[:8]:
            assert flat.far(sid, slot) == packed.far(sid, slot)
            assert flat.near(sid, slot) == packed.near(sid, slot)

    def test_compressed_stores_fewer_bytes(self, test_dataset):
        flat = ConnectionIndex(
            test_dataset.network, test_dataset.database, 300
        )
        packed = ConnectionIndex(
            test_dataset.network, test_dataset.database, 300, compressed=True
        )
        slot = flat.slot_of(T)
        segments = list(test_dataset.network.segment_ids())[:30]
        flat.precompute(segment_ids=segments, slots=[slot], kinds=("far",))
        packed.precompute(segment_ids=segments, slots=[slot], kinds=("far",))
        assert packed.bytes_stored < flat.bytes_stored

    def test_query_results_identical(self, test_dataset):
        """The engine's answers are codec-independent."""
        from repro.core.engine import ReachabilityEngine
        from repro.core.sqmb import sqmb_bounding_region

        engine = ReachabilityEngine(
            test_dataset.network, test_dataset.database
        )
        st_index = engine.st_index(300)
        r0 = st_index.find_start_segment(CENTER)
        flat = ConnectionIndex(
            test_dataset.network, test_dataset.database, 300
        )
        packed = ConnectionIndex(
            test_dataset.network, test_dataset.database, 300, compressed=True
        )
        a = sqmb_bounding_region(flat, r0, float(T), 900, "far")
        b = sqmb_bounding_region(packed, r0, float(T), 900, "far")
        assert a.cover == b.cover
        assert a.boundary == b.boundary
