"""End-to-end integration tests: raw GPS -> pipeline -> indexes -> queries.

Exercises the whole Fig 2.2 framework in one flow, plus cross-cutting
properties of the query system on the shared test dataset.
"""

import pytest

from benchmarks.client_protocol import m_query, s_query
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery, SQuery
from repro.network.generator import grid_city
from repro.preprocessing.pipeline import PreprocessingPipeline
from repro.spatial.geometry import Point
from repro.trajectory.generator import FleetConfig, TaxiFleetGenerator
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def pipeline_engine(self):
        """Raw GPS through map matching into a queryable engine."""
        network = grid_city(rows=4, cols=4, spacing=900.0, primary_every=2, seed=3)
        fleet = FleetConfig(
            num_taxis=6, num_days=4,
            day_start_s=10 * 3600.0, day_end_s=12 * 3600.0,
        )
        generator = TaxiFleetGenerator(network, config=fleet)
        raws = [raw for raw, _ in generator.generate_raw()]
        pipeline = PreprocessingPipeline(network, granularity_m=450.0)
        database = pipeline.run(raws, num_taxis=6, num_days=4)
        return ReachabilityEngine(pipeline.network, database)

    def test_query_after_map_matching(self, pipeline_engine):
        query = SQuery(CENTER, day_time(10, 30), 600, 0.25)
        ours = s_query(pipeline_engine, query)
        baseline = s_query(pipeline_engine, query, algorithm="es")
        assert baseline.segments - ours.segments == set()

    def test_m_query_after_map_matching(self, pipeline_engine):
        query = MQuery(
            (CENTER, Point(900.0, 900.0)), day_time(10, 30), 600, 0.25
        )
        result = m_query(pipeline_engine, query)
        assert isinstance(result.segments, set)


class TestCrossCuttingProperties:
    """Invariants over a grid of query parameters on the test dataset."""

    @pytest.mark.parametrize("hour", [6, 11, 18])
    @pytest.mark.parametrize("prob", [0.2, 0.6])
    def test_nested_probability_regions(self, engine, hour, prob):
        base = s_query(engine, SQuery(CENTER, day_time(hour), 600, prob))
        stricter = s_query(
            engine,
            SQuery(CENTER, day_time(hour), 600, min(1.0, prob + 0.3))
        )
        # Probability nesting is exact for ES; TBS adds the unverified min
        # cover to both, so nesting holds up to that shared floor.
        floor = base.min_region.cover if base.min_region else set()
        assert stricter.segments - base.segments <= floor

    @pytest.mark.parametrize("delta_t", [300, 600])
    def test_tbs_sound_at_every_delta_t(self, engine, delta_t):
        """At any granularity, TBS finds what ES finds at that granularity.

        (Δt itself shifts the absolute result on sparse data because the
        first-slot window [T, T+Δt] widens; the paper's "Δt has no impact"
        observation presumes a dense fleet and is checked by the Fig 4.7
        benchmark on the full dataset instead.)
        """
        query = SQuery(CENTER, day_time(11), 1200, 0.2)
        ours = s_query(engine, query, delta_t_s=delta_t)
        baseline = s_query(engine, query, algorithm="es", delta_t_s=delta_t)
        assert baseline.segments - ours.segments == set()
        assert ours.segments - baseline.segments <= ours.min_region.cover

    def test_es_baseline_cost_flat_in_prob(self, engine):
        costs = []
        for prob in (0.2, 0.6, 1.0):
            result = s_query(
                engine,
                SQuery(CENTER, day_time(11), 600, prob), algorithm="es"
            )
            costs.append(result.cost.probability_checks)
        assert max(costs) == min(costs)  # verifies everything regardless

    def test_sqmb_cheaper_io_than_es(self, engine):
        query = SQuery(CENTER, day_time(11), 600, 0.2)
        ours = s_query(engine, query)
        baseline = s_query(engine, query, algorithm="es")
        assert ours.cost.io.page_reads < baseline.cost.io.page_reads

    def test_rush_hour_shrinks_region(self, engine, test_dataset):
        midday = s_query(engine, SQuery(CENTER, day_time(13), 600, 0.2))
        rush = s_query(engine, SQuery(CENTER, day_time(18), 600, 0.2))
        midday_km = midday.road_length_m(test_dataset.network)
        rush_km = rush.road_length_m(test_dataset.network)
        assert rush_km <= midday_km * 1.2  # rush never meaningfully bigger

    def test_identical_query_identical_result(self, engine):
        query = SQuery(CENTER, day_time(11), 900, 0.4)
        first = s_query(engine, query)
        second = s_query(engine, query)
        assert first.segments == second.segments
        assert first.probabilities == second.probabilities
