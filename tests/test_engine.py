"""Tests for the ReachabilityEngine façade."""

import pytest

from benchmarks.client_protocol import m_query, s_query
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery, QueryCost, QueryResult, SQuery
from repro.spatial.geometry import Point
from repro.trajectory.model import SECONDS_PER_DAY, day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


class TestQueryValidation:
    def test_squery_validation(self):
        with pytest.raises(ValueError):
            SQuery(CENTER, -1.0, 600, 0.2)
        with pytest.raises(ValueError):
            SQuery(CENTER, float(SECONDS_PER_DAY), 600, 0.2)
        with pytest.raises(ValueError):
            SQuery(CENTER, 0.0, 0, 0.2)
        with pytest.raises(ValueError):
            SQuery(CENTER, 0.0, 600, 0.0)
        with pytest.raises(ValueError):
            SQuery(CENTER, 0.0, 600, 1.5)
        inf, nan = float("inf"), float("nan")
        with pytest.raises(ValueError, match="location"):
            SQuery(Point(inf, 0.0), 39600, 600, 0.2)
        with pytest.raises(ValueError, match="location"):
            SQuery(Point(0.0, nan), 39600, 600, 0.2)
        with pytest.raises(ValueError, match="duration"):
            SQuery(CENTER, 39600, nan, 0.2)
        with pytest.raises(ValueError, match="duration"):
            SQuery(CENTER, 39600, inf, 0.2)

    def test_mquery_validation(self):
        with pytest.raises(ValueError):
            MQuery((), 0.0, 600, 0.2)
        with pytest.raises(ValueError, match="location"):
            MQuery((CENTER, Point(float("nan"), 1), Point(1, 1)), 0.0, 600, 0.2)
        with pytest.raises(ValueError, match="duration"):
            MQuery((CENTER, Point(1, 1)), 0.0, float("inf"), 0.2)
        q = MQuery((CENTER, Point(1, 1)), 0.0, 600, 0.2)
        subs = q.as_s_queries()
        assert len(subs) == 2
        assert subs[0].location == CENTER
        assert subs[0].prob == 0.2


class TestEngineBasics:
    def test_unknown_algorithm_rejected(self, engine):
        with pytest.raises(ValueError):
            s_query(engine, SQuery(CENTER, T, 600, 0.2), algorithm="magic")
        with pytest.raises(ValueError):
            m_query(engine, MQuery((CENTER,), T, 600, 0.2), algorithm="magic")

    def test_index_caching(self, engine):
        assert engine.st_index(300) is engine.st_index(300)
        assert engine.con_index(300) is engine.con_index(300)
        assert engine.st_index(300) is not engine.st_index(600)

    def test_result_fields(self, engine):
        result = s_query(engine, SQuery(CENTER, T, 600, 0.2))
        assert isinstance(result, QueryResult)
        assert isinstance(result.cost, QueryCost)
        assert len(result.start_segments) == 1
        assert result.cost.wall_time_s > 0
        assert result.cost.total_cost_ms >= result.cost.wall_time_s * 1e3
        assert result.max_region is not None

    def test_es_has_no_bounding_regions(self, engine):
        result = s_query(engine, SQuery(CENTER, T, 600, 0.2), algorithm="es")
        assert result.max_region is None

    def test_dead_of_night_far_corner_is_empty(self, engine, test_dataset):
        # A location in the far corner at 03:00 with a tiny window has no
        # trajectory leaving it on any day (or almost none).
        bounds = test_dataset.network.bounds()
        corner = Point(bounds.max_x, bounds.max_y)
        result = s_query(engine, SQuery(corner, day_time(3, 2), 300, 1.0))
        # The engine must not crash; result may legitimately be empty.
        assert isinstance(result.segments, set)

    def test_road_length_consistency(self, engine, test_dataset):
        result = s_query(engine, SQuery(CENTER, T, 600, 0.2))
        length = result.road_length_m(test_dataset.network)
        assert length >= 0
        if result.segments:
            assert length > 0
            # Dedup: summing naively over both carriageways would be ~2x.
            naive = sum(
                test_dataset.network.segment(s).length for s in result.segments
            )
            assert length <= naive

    def test_warm_queries_cheaper(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        cold = s_query(engine, query, warm=False)
        warm = s_query(engine, query, warm=True)
        assert warm.cost.io.page_reads <= cold.cost.io.page_reads

    def test_cold_queries_repeatable_io(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        first = s_query(engine, query, warm=False)
        second = s_query(engine, query, warm=False)
        assert first.cost.io.page_reads == second.cost.io.page_reads
        assert first.segments == second.segments

    def test_m_query_cost_aggregates(self, engine):
        query = MQuery((CENTER, Point(1000.0, 500.0)), T, 600, 0.2)
        naive = m_query(engine, query, algorithm="sqmb_tbs_each")
        assert naive.cost.probability_checks > 0
        assert naive.cost.segments_expanded > 0

    def test_delta_t_variants(self, engine):
        for delta_t in (300, 600):
            result = s_query(
                engine,
                SQuery(CENTER, T, 600, 0.2), delta_t_s=delta_t
            )
            assert isinstance(result.segments, set)

    def test_engine_rejects_nothing_without_build(self, test_dataset):
        fresh = ReachabilityEngine(test_dataset.network, test_dataset.database)
        result = s_query(fresh, SQuery(CENTER, T, 300, 0.2))
        assert isinstance(result.segments, set)
