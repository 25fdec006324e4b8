"""Tests for the application layer (recommendation, coverage, isochrones)."""

import pytest

from benchmarks.client_protocol import s_query
from repro.apps.coverage import analyze_coverage
from repro.apps.isochrone import isochrones
from repro.apps.recommendation import POI, recommend_pois
from repro.core.query import SQuery
from repro.core.sqmb import sqmb_bounding_region
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


@pytest.fixture(scope="module")
def pois(test_dataset):
    """POIs scattered over the network: some central, some peripheral."""
    bounds = test_dataset.network.bounds()
    return [
        POI("noodles", Point(200.0, 100.0), "restaurant"),
        POI("cafe", Point(-300.0, 250.0), "cafe"),
        POI("mall", Point(700.0, -500.0), "shopping"),
        POI("far-depot", Point(bounds.max_x, bounds.max_y), "logistics"),
    ]


class TestRecommendation:
    def test_empty_pois(self, engine):
        assert recommend_pois(engine, CENTER, T, 600, []) == []

    def test_reachable_pois_only(self, engine, test_dataset, pois):
        ranked = recommend_pois(engine, CENTER, T, 900, pois, prob=0.2)
        names = [r.poi.name for r in ranked]
        # Central POIs should make it; none may be duplicated.
        assert len(names) == len(set(names))
        region = s_query(engine, SQuery(CENTER, T, 900, 0.2)).segments
        roads = {
            test_dataset.network.segment(s).canonical_id() for s in region
        }
        for entry in ranked:
            seg = test_dataset.network.segment(entry.segment_id)
            assert seg.canonical_id() in roads

    def test_ranking_order(self, engine, pois):
        ranked = recommend_pois(engine, CENTER, T, 900, pois, prob=0.2)
        keys = [
            (
                -(r.probability if r.probability is not None else 1.0),
                r.distance_m,
            )
            for r in ranked
        ]
        assert keys == sorted(keys)

    def test_top_k(self, engine, pois):
        full = recommend_pois(engine, CENTER, T, 900, pois, prob=0.2)
        if len(full) >= 2:
            top = recommend_pois(engine, CENTER, T, 900, pois, prob=0.2, top_k=1)
            assert top == full[:1]

    def test_non_finite_poi_is_a_typed_error(self, engine):
        far_off = POI("nowhere", Point(float("inf"), 0.0))
        with pytest.raises(ValueError, match="location must be finite"):
            recommend_pois(engine, CENTER, T, 900, [far_off], prob=0.2)

    def test_distance_field(self, engine, pois):
        for entry in recommend_pois(engine, CENTER, T, 900, pois, prob=0.2):
            assert entry.distance_m == pytest.approx(
                CENTER.distance_to(entry.poi.location)
            )


class TestCoverage:
    BRANCHES = [CENTER, Point(1200.0, 900.0)]

    def test_requires_branches(self, engine):
        with pytest.raises(ValueError):
            analyze_coverage(engine, [], T, 600)

    def test_report_structure(self, engine):
        report = analyze_coverage(engine, self.BRANCHES, T, 600, prob=0.2)
        assert len(report.branches) == 2
        assert 0.0 <= report.coverage_fraction <= 1.0
        assert report.road_km >= 0

    def test_union_contains_exclusive(self, engine):
        report = analyze_coverage(engine, self.BRANCHES, T, 600, prob=0.2)
        for branch in report.branches:
            assert branch.exclusive_segments <= branch.own_segments

    def test_marginal_km_bounded_by_total(self, engine):
        report = analyze_coverage(engine, self.BRANCHES, T, 600, prob=0.2)
        for branch in report.branches:
            assert branch.marginal_road_km <= report.road_km + 1e-9

    def test_single_branch_owns_everything(self, engine):
        report = analyze_coverage(engine, [CENTER], T, 600, prob=0.2)
        branch = report.branches[0]
        assert branch.exclusive_segments == branch.own_segments


class TestIsochrones:
    def test_empty_durations(self, engine):
        assert isochrones(engine, CENTER, T, []) == []

    @pytest.mark.parametrize(
        "location", [Point(float("inf"), 0.0), Point(0.0, float("nan"))]
    )
    def test_non_finite_location_is_a_typed_error(self, engine, location):
        with pytest.raises(ValueError, match="location must be finite"):
            isochrones(engine, location, T, [300])

    def test_bands_are_nested(self, engine):
        bands = isochrones(engine, CENTER, T, [300, 600, 900], prob=0.2)
        assert [b.duration_s for b in bands] == [300, 600, 900]
        for small, large in zip(bands, bands[1:]):
            assert small.segments <= large.segments
            assert small.road_km <= large.road_km + 1e-9

    def test_band_matches_single_query_roughly(self, engine, test_dataset):
        bands = isochrones(engine, CENTER, T, [600], prob=0.2)
        single = s_query(engine, SQuery(CENTER, T, 600, 0.2), algorithm="es")
        band_roads = {
            test_dataset.network.segment(s).canonical_id()
            for s in bands[0].segments
        }
        single_roads = {
            test_dataset.network.segment(s).canonical_id()
            for s in single.segments
        }
        union = band_roads | single_roads
        if union:
            overlap = len(band_roads & single_roads) / len(union)
            assert overlap >= 0.7

    @pytest.mark.parametrize("delta_t_s", [300, 600, 1200])
    @pytest.mark.parametrize(
        "location", [CENTER, Point(500.0, -500.0), Point(800.0, 600.0)]
    )
    def test_band_is_the_engines_answer_at_every_delta_t(
        self, engine, location, delta_t_s
    ):
        """A band is Eq. 3.1 as the engine evaluates it — the ``es``
        answer on the band's candidate set, the longest duration's Far
        cover — whatever the index Δt, and for a duration off the Δt grid
        (450 s) over that duration's own window."""
        start = engine.st_index(delta_t_s).find_start_segment(location)
        for duration in (1200, 450):
            cover = sqmb_bounding_region(
                engine.con_index(delta_t_s), start, T, duration
            ).cover
            for prob in (0.2, 0.5):
                (band,) = isochrones(
                    engine, location, T, [duration], prob, delta_t_s=delta_t_s
                )
                answer = s_query(
                    engine,
                    SQuery(location, T, duration, prob),
                    algorithm="es",
                    delta_t_s=delta_t_s,
                ).segments
                assert band.segments == answer & cover

    def test_unsorted_input_sorted_output(self, engine):
        bands = isochrones(engine, CENTER, T, [900, 300], prob=0.2)
        assert [b.duration_s for b in bands] == [300, 900]

    def test_dead_target_empty_bands(self, engine, test_dataset):
        bounds = test_dataset.network.bounds()
        corner = Point(bounds.max_x, bounds.max_y)
        bands = isochrones(engine, corner, day_time(3, 1), [300], prob=1.0)
        assert len(bands) == 1
