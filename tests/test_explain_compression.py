"""Tests for query explanation."""

from benchmarks.client_protocol import m_query, s_query
from repro.api import QueryOptions, ReachabilityClient, Request
from repro.core.query import MQuery, SQuery
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


def explain(engine, query, algorithm="sqmb_tbs"):
    """A cold explained run of the paper's algorithm, on private regions."""
    options = QueryOptions(algorithm=algorithm, delta_t_s=300, reuse_regions=False)
    return ReachabilityClient(engine).explain(Request(query, options))


class TestExplain:
    def test_s_query_stages(self, engine):
        explanation = explain(engine, SQuery(CENTER, T, 600, 0.2))
        names = [stage.name for stage in explanation.stages]
        assert names == [
            "start-segment lookup",
            "start time-list read",
            "max bounding region",
            "TBS (ring probe)",
        ]
        assert explanation.max_cover > 0
        assert explanation.region_segments >= 0
        assert explanation.examined >= 0

    def test_explanation_matches_query(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        explanation = explain(engine, query)
        result = s_query(engine, query)
        assert explanation.region_segments == len(result.segments)
        assert explanation.max_cover == len(result.max_region.cover)

    def test_text_rendering(self, engine):
        explanation = explain(engine, SQuery(CENTER, T, 600, 0.2))
        text = explanation.to_text()
        assert "QUERY PLAN" in text
        assert "TBS (ring probe)" in text
        assert "region=" in text

    def test_dead_query_short_plan(self, engine, test_dataset):
        bounds = test_dataset.network.bounds()
        corner = Point(bounds.max_x, bounds.max_y)
        explanation = explain(engine, SQuery(corner, day_time(3, 1), 300, 1.0))
        # A query with no start trajectories stops after two stages.
        assert len(explanation.stages) <= 2 or explanation.region_segments >= 0

    def test_m_query_stages(self, engine):
        query = MQuery((CENTER, Point(1000.0, 600.0)), T, 600, 0.2)
        explanation = explain(engine, query, "mqmb_tbs")
        assert explanation.stages[0].name == "start-segment lookup"
        assert explanation.stages[-1].name == "TBS (ring probe)"
        result = m_query(engine, query)
        assert explanation.region_segments == len(result.segments)
