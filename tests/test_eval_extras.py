"""Additional coverage for the eval harness and viz edge cases."""

import pytest

from benchmarks.client_protocol import s_query
from repro.core.query import QueryResult, SQuery
from repro.eval.runner import (
    SweepPoint,
    run_interval_sweep,
    run_mquery_duration_sweep,
    run_probability_sweep,
    run_start_time_sweep,
)
from repro.eval.tables import format_savings, format_series
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time
from repro.viz.ascii_map import render_region
from repro.viz.geojson import region_to_geojson

CENTER = Point(0.0, 0.0)
T = day_time(11)


def make_points():
    return [
        SweepPoint(5, "sqmb_tbs", 100.0, 10.0, 90.0, 4.0, 10, 20, "Δt=5min"),
        SweepPoint(5, "es", 1000.0, 50.0, 950.0, 4.0, 10, 200, "ES"),
        SweepPoint(10, "sqmb_tbs", 200.0, 20.0, 180.0, 8.0, 20, 40, "Δt=5min"),
        SweepPoint(10, "es", 1100.0, 55.0, 1045.0, 8.0, 20, 210, "ES"),
    ]


class TestTables:
    def test_format_savings(self):
        text = format_savings(
            "savings", make_points(), ours="sqmb_tbs Δt=5min", baseline="ES",
            x_name="L",
        )
        assert "90%" in text
        assert "82%" in text  # 1 - 200/1100

    def test_format_savings_missing_curve(self):
        text = format_savings(
            "savings", make_points(), ours="nonexistent", baseline="ES"
        )
        assert text.count("%") == 0

    def test_format_series_missing_cells(self):
        points = make_points()[:3]  # es missing at x=10
        text = format_series("fig", points, x_name="L")
        assert "-" in text.splitlines()[-1]

    def test_format_series_alternate_metric(self):
        text = format_series(
            "fig", make_points(), metric="road_length_km",
            value_format="{:.1f}",
        )
        assert "4.0" in text and "8.0" in text


class TestRunnerSweeps:
    def test_probability_sweep_runs(self, engine):
        points = run_probability_sweep(
            engine, CENTER, (0.2, 0.6), T, durations_s=(300,), include_es=False
        )
        assert len(points) == 2
        assert all(p.algorithm == "sqmb_tbs" for p in points)

    def test_start_time_sweep_runs(self, engine):
        points = run_start_time_sweep(
            engine, CENTER, (day_time(10), day_time(12)), durations_s=(300,)
        )
        assert {p.x for p in points} == {day_time(10), day_time(12)}

    def test_interval_sweep_runs(self, engine):
        points = run_interval_sweep(
            engine, CENTER, (300, 600), T, durations_s=(300,),
            include_es=False,
        )
        assert {p.x for p in points} == {5.0, 10.0}

    def test_mquery_sweep_runs(self, engine):
        points = run_mquery_duration_sweep(
            engine, (CENTER, Point(900.0, 700.0)), (300,), T
        )
        assert {p.label for p in points} == {"m-query", "s-query"}


class TestVizEdgeCases:
    def test_empty_region_map(self, test_dataset):
        result = QueryResult()
        art = render_region(result, test_dataset.network, width=30, height=10)
        assert "#" not in art.splitlines()[0]
        assert "unreachable" in art  # legend always present

    def test_empty_region_geojson(self, test_dataset):
        geo = region_to_geojson(QueryResult(), test_dataset.network)
        assert geo["features"] == []

    def test_two_segment_region_no_hull(self, engine, test_dataset):
        result = QueryResult(segments=set(list(
            test_dataset.network.segment_ids())[:2]))
        geo = region_to_geojson(result, test_dataset.network)
        kinds = {f["geometry"]["type"] for f in geo["features"]}
        assert kinds == {"LineString"}

    def test_start_marker_priority(self, engine, test_dataset):
        result = s_query(engine, SQuery(CENTER, T, 600, 0.2))
        art = render_region(result, test_dataset.network, width=50, height=20)
        assert art.count("@") >= 1
