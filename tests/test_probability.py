"""Tests for Eq. 3.1 probability estimation on crafted trajectories."""

import pytest

from repro.core.probability import ProbabilityEstimator
from repro.core.st_index import STIndex
from repro.network.generator import grid_city
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

T = float(day_time(11))
NUM_DAYS = 5


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


@pytest.fixture(scope="module")
def route(network):
    """A 6-segment route following successors from segment 0."""
    path = [0]
    while len(path) < 6:
        path.append(network.successors(path[-1])[0])
    return path


@pytest.fixture(scope="module")
def index(network, route):
    """Crafted history:

    * all 5 days: a trajectory passes route[0..3] starting at T+10;
    * days 0-1 only: a second trajectory covers route[0..5] from T+20;
    * day 0: a trajectory on route[4] at T+50 that never touched route[0]
      (must not count toward reachability from route[0]).
    """
    db = TrajectoryDatabase(num_taxis=10, num_days=NUM_DAYS)
    for day in range(NUM_DAYS):
        db.add(MatchedTrajectory(
            trajectory_id=day * 10, taxi_id=0, date=day,
            visits=[
                SegmentVisit(route[i], T + 10 + 60 * i, 6.0) for i in range(4)
            ],
        ))
    for day in range(2):
        db.add(MatchedTrajectory(
            trajectory_id=day * 10 + 1, taxi_id=1, date=day,
            visits=[
                SegmentVisit(route[i], T + 20 + 60 * i, 6.0) for i in range(6)
            ],
        ))
    db.add(MatchedTrajectory(
        trajectory_id=2, taxi_id=2, date=0,
        visits=[SegmentVisit(route[4], T + 50, 6.0)],
    ))
    db.finalize()
    index = STIndex(network, 300)
    index.build(db)
    return index


class TestEquation31:
    def test_invalid_num_days(self, index, route):
        with pytest.raises(ValueError):
            ProbabilityEstimator(index, route[0], T, 600, 0)

    def test_start_days(self, index, route):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        assert est.start_days == NUM_DAYS

    def test_start_segment_probability_one(self, index, route):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        assert est.probability(route[0]) == pytest.approx(1.0)

    def test_every_day_route_is_certain(self, index, route):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        for segment in route[1:4]:
            assert est.probability(segment) == pytest.approx(1.0)

    def test_partial_route_fraction(self, index, route):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        # route[4], route[5] only reached on days 0-1 -> 2/5.
        assert est.probability(route[4]) == pytest.approx(2 / 5)
        assert est.probability(route[5]) == pytest.approx(2 / 5)

    def test_unrelated_trajectory_does_not_count(self, index, route, network):
        """The day-0 trajectory on route[4] never passed route[0]."""
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        # If intersection were ignored, day 0 would still only give 2/5 via
        # taxi 1; the lone taxi-2 visit must not raise it.
        assert est.probability(route[4]) == pytest.approx(2 / 5)

    def test_unvisited_segment_zero(self, index, route, network):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        untouched = [
            sid for sid in network.segment_ids() if sid not in route
        ][0]
        # Its twin may coincide with a route road; pick a clean one.
        clean = next(
            sid for sid in network.segment_ids()
            if sid not in route and network.segment(sid).twin_id not in route
        )
        assert est.probability(clean) == 0.0

    def test_duration_window_limits(self, index, route):
        # route[5] is entered at T+320; L=240 < 320 excludes it.
        est = ProbabilityEstimator(index, route[0], T, 240, NUM_DAYS)
        assert est.probability(route[5]) == 0.0

    def test_window_semantics_are_exact(self, index, route):
        """Time lists carry per-visit seconds, so a window starting
        mid-slot excludes earlier visits in the same slot instead of
        rounding out to the whole Δt slot."""
        est = ProbabilityEstimator(index, route[0], T + 5, 600, NUM_DAYS)
        assert est.start_days == NUM_DAYS  # departures at T+10/T+20
        # A start past the day's departures sees none of them, even
        # though T+61 lives in the same Δt slot as T+10.
        later = ProbabilityEstimator(index, route[0], T + 61, 600, NUM_DAYS)
        assert later.start_days == 0
        assert later.probability(route[1]) == 0.0

    def test_short_duration_truncates_departure_window(self, index, route):
        """With L < Δt the departure window is [T, T+L], not the whole
        first slot — results stay insensitive to the index granularity."""
        est = ProbabilityEstimator(index, route[0], T, 15, NUM_DAYS)
        assert est.start_days == NUM_DAYS  # T+10 departures qualify
        shorter = ProbabilityEstimator(index, route[0], T, 9, NUM_DAYS)
        assert shorter.start_days == 0

    def test_cache_counts_checks_once(self, index, route):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        est.probability(route[1])
        est.probability(route[1])
        assert est.checks == 1

    def test_twin_shares_probability(self, index, route, network):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        value = est.probability(route[1])
        twin = network.segment(route[1]).twin_id
        checks = est.checks
        assert est.probability(twin) == pytest.approx(value)
        assert est.checks == checks  # cached via twin

    def test_is_reachable_threshold(self, index, route):
        est = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        assert 0.4 <= est.probability(route[4]) < 0.41
