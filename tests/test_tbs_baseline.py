"""Unit tests for trace-back search and the ES baselines on crafted data.

The fixture builds a fully deterministic world where the Prob-reachable
region is known exactly, so TBS and ES can be checked against ground truth
instead of against each other.
"""

import pytest

from repro.core.baseline import exhaustive_search, exhaustive_search_pruned
from repro.core.probability import ProbabilityEstimator
from repro.core.query import BoundingRegion
from repro.core.st_index import STIndex
from repro.core.tbs import trace_back_search
from repro.network.generator import grid_city
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

T = float(day_time(11))
NUM_DAYS = 4


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


@pytest.fixture(scope="module")
def route(network):
    """A simple 8-segment route that never revisits a road (canonically)."""
    from repro.spatial.geometry import Point

    start = network.nearest_segment_linear(Point(0.0, 0.0))

    def extend(path, seen_roads):
        if len(path) == 8:
            return path
        for successor in network.successors(path[-1]):
            road = network.segment(successor).canonical_id()
            if road in seen_roads:
                continue
            found = extend(path + [successor], seen_roads | {road})
            if found is not None:
                return found
        return None

    path = extend([start], {network.segment(start).canonical_id()})
    assert path is not None, "no simple 8-road route from the centre"
    return path


@pytest.fixture(scope="module")
def database(route):
    """Trajectories along ``route`` with decreasing daily support:

    route[i] is reached on ``NUM_DAYS - max(0, i - 3)`` days, so the
    probability staircase is 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.25, 0.0(+).
    """
    db = TrajectoryDatabase(num_taxis=NUM_DAYS, num_days=NUM_DAYS)
    for day in range(NUM_DAYS):
        depth = 8 - day  # day 0 goes deepest
        visits = [
            SegmentVisit(route[i], T + 5 + 30 * i, 6.0)
            for i in range(min(depth, 8))
        ]
        db.add(MatchedTrajectory(day, day % NUM_DAYS, day, visits))
    db.finalize()
    return db


@pytest.fixture(scope="module")
def world(network, route, database):
    index = STIndex(network, 300)
    index.build(database)
    estimator = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
    return index, estimator


class TestStaircaseGroundTruth:
    def test_probability_staircase(self, world, route):
        _, est = world
        expected = [1.0, 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.25]
        for segment, prob in zip(route, expected):
            assert est.probability(segment) == pytest.approx(prob)


class TestExhaustiveSearch:
    def test_region_matches_threshold(self, world, route, network):
        _, est = world
        result = exhaustive_search(network, est, 0.6)
        expected_roads = {
            network.segment(route[i]).canonical_id() for i in range(6)
        }
        got_roads = {network.segment(s).canonical_id() for s in result.region}
        assert got_roads == expected_roads

    def test_examines_whole_network(self, world, route, network):
        _, est = world
        result = exhaustive_search(network, est, 0.6)
        assert result.examined == network.num_segments

    def test_pruned_examines_support_only(self, world, route, network):
        _, est = world
        full = exhaustive_search(network, est, 0.6)
        pruned = exhaustive_search_pruned(network, est, 0.6)
        assert pruned.region == full.region
        assert pruned.examined < full.examined

    def test_naive_m_query_unions(self, database, route, network):
        """The registered form of the naive m-query baseline, ``es_each``:
        the union of the per-location ``es`` answers."""
        from repro.api import QueryOptions, ReachabilityClient, Request
        from repro.core.engine import ReachabilityEngine
        from repro.core.query import MQuery, SQuery

        client = ReachabilityClient(ReachabilityEngine(network, database))
        locations = tuple(network.segment(route[i]).midpoint for i in (0, 3))

        def send(query, algorithm):
            return client.send(Request(query, QueryOptions(algorithm=algorithm)))

        merged = send(MQuery(locations, T, 600, 0.6), "es_each")
        singles = [send(SQuery(loc, T, 600, 0.6), "es") for loc in locations]
        assert all(single.segments for single in singles)
        assert merged.segments == singles[0].segments | singles[1].segments
        examined = set(merged.result.probabilities)
        assert examined == set(singles[0].result.probabilities) | set(
            singles[1].result.probabilities
        )
        # What the union leaves out failed under every location.
        failed = examined - merged.segments
        assert failed and all(
            single.result.probabilities[segment] < 0.6
            for segment in failed
            for single in singles
        )
        assert merged.cost.segments_expanded == sum(
            single.cost.segments_expanded for single in singles
        )


def make_region(network, route, depth):
    """A bounding region along the route: cover = route[:depth] (+twins)."""
    from repro.core.sqmb import close_under_twins

    cover = set(route[:depth])
    close_under_twins(network, cover)
    return BoundingRegion(cover=cover)


class TestTraceBackSearch:
    def test_finds_threshold_boundary(self, world, route, network):
        _, est = world
        max_region = make_region(network, route, 8)
        result = trace_back_search(
            network, {route[0]: est}, 0.6, max_region
        )
        got_roads = {network.segment(s).canonical_id() for s in result.region}
        expected_roads = {
            network.segment(route[i]).canonical_id() for i in range(6)
        }
        assert got_roads == expected_roads

    def test_examined_less_than_cover(self, world, route, network):
        _, est = world
        max_region = make_region(network, route, 8)
        result = trace_back_search(
            network, {route[0]: est}, 0.6, max_region
        )
        assert result.examined <= len(max_region.cover)

    def test_passed_and_failed_disjoint(self, world, route, network):
        _, est = world
        max_region = make_region(network, route, 8)
        result = trace_back_search(
            network, {route[0]: est}, 0.6, max_region
        )
        assert result.region.isdisjoint(result.failed)

    def test_min_cover_is_examined(self, world, route, network):
        """What Bmin held (here route[:7]) is valued like the rest of the
        ring: route[5] (0.75) and route[6] (0.5) lie in it, and only the
        one at or above Prob stays."""
        _, est = world
        max_region = make_region(network, route, 8)
        min_cover = make_region(network, route, 7).cover
        result = trace_back_search(network, {route[0]: est}, 0.6, max_region)
        assert min_cover <= result.region | result.failed
        got_roads = {network.segment(s).canonical_id() for s in result.region}
        expected_roads = {
            network.segment(route[i]).canonical_id() for i in range(6)
        }
        assert got_roads == expected_roads

    def test_ring_is_the_max_cover(self, world, route, network):
        """Every segment of Bmax is valued once, in one wave."""
        _, est = world
        max_region = make_region(network, route, 8)
        result = trace_back_search(network, {route[0]: est}, 0.6, max_region)
        assert set(result.probabilities) == max_region.cover
        assert result.region | result.failed == max_region.cover
        assert result.wave_sizes == [len(max_region.cover)]

    def test_prob_one_region_is_certain_prefix(self, world, route, network):
        _, est = world
        max_region = make_region(network, route, 8)
        result = trace_back_search(
            network, {route[0]: est}, 1.0, max_region
        )
        got_roads = {network.segment(s).canonical_id() for s in result.region}
        expected_roads = {
            network.segment(route[i]).canonical_id() for i in range(5)
        }
        assert got_roads == expected_roads

    def test_visited_once(self, world, route, network):
        """Each segment is examined at most once (the Fig 3.5 r* rule)."""
        index, _ = world
        fresh = ProbabilityEstimator(index, route[0], T, 600, NUM_DAYS)
        max_region = make_region(network, route, 8)
        trace_back_search(
            network, {route[0]: fresh}, 0.6, max_region
        )
        # checks counts cache misses; visiting a segment twice would not
        # re-check, but the number of checks is bounded by the cover.
        assert fresh.checks <= len(max_region.cover)
