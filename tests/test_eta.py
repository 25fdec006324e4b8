"""Tests for arrival-time profiles (repro.apps.eta)."""

import pytest

from repro.apps.eta import ArrivalProfile, arrival_profile
from repro.core.probability import ProbabilityEstimator
from repro.core.st_index import STIndex
from repro.network.generator import grid_city
from repro.spatial.geometry import Point
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

T = float(day_time(11))


class TestArrivalProfileMath:
    def make(self, per_day):
        profile = ArrivalProfile(0, 1, 3600, per_day_s=dict(per_day),
                                 total_days=5)
        profile.reachable_days = len(profile.per_day_s)
        return profile

    def test_reachability_fraction(self):
        profile = self.make({0: 300, 1: 600})
        assert profile.reachability == pytest.approx(2 / 5)

    def test_percentiles(self):
        profile = self.make({0: 300, 1: 600, 2: 900, 3: 1200})
        assert profile.percentile_s(0.5) == 600
        assert profile.percentile_s(1.0) == 1200
        assert profile.percentile_s(0.25) == 300

    def test_percentile_empty(self):
        profile = self.make({})
        assert profile.percentile_s(0.5) is None

    def test_percentile_validation(self):
        profile = self.make({0: 300})
        with pytest.raises(ValueError):
            profile.percentile_s(0.0)
        with pytest.raises(ValueError):
            profile.percentile_s(1.5)

    def test_rows(self):
        rows = dict(self.make({0: 300}).to_rows())
        assert "reachable days" in rows
        assert "1/5" in rows["reachable days"]


class TestArrivalProfileOnCraftedData:
    @pytest.fixture(scope="class")
    def world(self):
        """Days arrive at the target after 1, 2, 3 slots; day 3 never."""
        network = grid_city(rows=4, cols=4, spacing=600.0, primary_every=0,
                            seed=3)
        route = [0]
        while len(route) < 4:
            route.append(network.successors(route[-1])[0])
        db = TrajectoryDatabase(num_taxis=4, num_days=4)
        # Day d's trajectory reaches route[3] at T + (d+1)*300 - 10.
        for day in range(3):
            arrival = T + (day + 1) * 300 - 10
            db.add(MatchedTrajectory(day, day, day, [
                SegmentVisit(route[0], T + 5, 6.0),
                SegmentVisit(route[3], arrival, 6.0),
            ]))
        db.add(MatchedTrajectory(3, 3, 3, [
            SegmentVisit(route[0], T + 5, 6.0),
        ]))
        db.finalize()
        from repro.core.engine import ReachabilityEngine

        engine = ReachabilityEngine(network, db)
        engine.st_index(300)
        return engine, network, route

    def test_per_day_slots(self, world):
        engine, network, route = world
        profile = arrival_profile(
            engine,
            network.segment(route[0]).midpoint,
            network.segment(route[3]).midpoint,
            T,
            horizon_s=1800,
        )
        assert profile.per_day_s == {0: 300, 1: 600, 2: 900}
        assert profile.reachable_days == 3
        assert profile.total_days == 4
        assert profile.reachability == pytest.approx(3 / 4)

    def test_horizon_cuts_off(self, world):
        engine, network, route = world
        profile = arrival_profile(
            engine,
            network.segment(route[0]).midpoint,
            network.segment(route[3]).midpoint,
            T,
            horizon_s=600,
        )
        assert profile.per_day_s == {0: 300, 1: 600}

    def test_dead_origin(self, world):
        engine, network, route = world
        far = network.bounds()
        corner = Point(far.max_x, far.max_y)
        profile = arrival_profile(engine, corner, corner, day_time(3), 600)
        assert profile.reachable_days == 0
        assert profile.reachability == 0.0


class TestArrivalProfileOnDataset:
    def test_profile_consistent_with_reachability(self, engine, test_dataset):
        profile = arrival_profile(
            engine, Point(0, 0), Point(800, 600), day_time(11),
            horizon_s=1200,
        )
        assert 0 <= profile.reachability <= 1
        for seconds in profile.per_day_s.values():
            assert 0 < seconds <= 1200
            assert seconds % 300 == 0  # slot-rounded

    @pytest.mark.parametrize("delta_t_s", [300, 600, 1200])
    @pytest.mark.parametrize(
        "target", [Point(500, 0), Point(800, 600), Point(1800, 1500)]
    )
    def test_reachability_is_eq31_at_the_horizon(
        self, engine, test_dataset, target, delta_t_s
    ):
        profile = arrival_profile(
            engine, Point(0, 0), target, day_time(11),
            horizon_s=1200, delta_t_s=delta_t_s,
        )
        estimator = ProbabilityEstimator(
            engine.st_index(delta_t_s), profile.origin_segment,
            day_time(11), 1200, test_dataset.database.num_days,
        )
        assert profile.reachability == estimator.probability(
            profile.target_segment
        )

    def test_nearby_target_faster_than_far(self, engine):
        near = arrival_profile(
            engine, Point(0, 0), Point(500, 0), day_time(11), 1800
        )
        far = arrival_profile(
            engine, Point(0, 0), Point(1800, 1500), day_time(11), 1800
        )
        near_median = near.percentile_s(0.5)
        far_median = far.percentile_s(0.5)
        if near_median is not None and far_median is not None:
            assert near_median <= far_median

    @pytest.mark.parametrize(
        "origin,target",
        [(Point(float("inf"), 0.0), Point(0.0, 0.0)), (Point(0.0, 0.0), Point(float("nan"), 0.0))],
    )
    def test_non_finite_location_is_a_typed_error(self, engine, origin, target):
        with pytest.raises(ValueError, match="location must be finite"):
            arrival_profile(engine, origin, target, T)
