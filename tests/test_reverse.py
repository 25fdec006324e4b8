"""Tests for reverse reachability queries."""

import pytest

from benchmarks.client_protocol import r_query
from repro.core.query import SQuery
from repro.core.reverse import ReverseProbabilityEstimator, reverse_bounding_region
from repro.core.st_index import STIndex
from repro.network.expansion import time_bounded_expansion
from repro.network.generator import grid_city
from repro.spatial.geometry import Point
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase
from reference.min_speed_index import MinSpeedConnectionIndex

CENTER = Point(0.0, 0.0)
T = float(day_time(11))
NUM_DAYS = 4


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


@pytest.fixture(scope="module")
def route(network):
    start = network.nearest_segment_linear(CENTER)

    def extend(path, seen):
        if len(path) == 5:
            return path
        for succ in network.successors(path[-1]):
            road = network.segment(succ).canonical_id()
            if road in seen:
                continue
            found = extend(path + [succ], seen | {road})
            if found:
                return found
        return None

    return extend([start], {network.segment(start).canonical_id()})


@pytest.fixture(scope="module")
def index(network, route):
    """Taxis drive route[0] -> route[4] on days 0..2; day 3 is empty near it."""
    db = TrajectoryDatabase(num_taxis=NUM_DAYS, num_days=NUM_DAYS)
    for day in range(NUM_DAYS):
        if day == 3:
            visits = [SegmentVisit(route[4], T + 5, 6.0)]
        else:
            visits = [
                SegmentVisit(route[i], T + 5 + 40 * i, 6.0) for i in range(5)
            ]
        db.add(MatchedTrajectory(day, day, day, visits))
    db.finalize()
    index = STIndex(network, 300)
    index.build(db)
    return index


class TestReverseEstimator:
    def test_invalid_days(self, index, route):
        with pytest.raises(ValueError):
            ReverseProbabilityEstimator(index, route[4], T, 600, 0)

    def test_target_days(self, index, route):
        est = ReverseProbabilityEstimator(index, route[4], T, 600, NUM_DAYS)
        assert est.start_days == NUM_DAYS  # some visit every day

    def test_origin_probability(self, index, route):
        """route[0] can reach route[4] on 3 of 4 days."""
        est = ReverseProbabilityEstimator(index, route[4], T, 600, NUM_DAYS)
        assert est.probability(route[0]) == pytest.approx(3 / 4)

    def test_target_reaches_itself(self, index, route):
        est = ReverseProbabilityEstimator(index, route[4], T, 600, NUM_DAYS)
        assert est.probability(route[4]) == pytest.approx(1.0)

    def test_unrelated_origin_zero(self, index, route, network):
        est = ReverseProbabilityEstimator(index, route[4], T, 600, NUM_DAYS)
        clean = next(
            sid for sid in network.segment_ids()
            if sid not in route and network.segment(sid).twin_id not in route
        )
        assert est.probability(clean) == 0.0

    def test_caching_and_twin(self, index, route, network):
        est = ReverseProbabilityEstimator(index, route[4], T, 600, NUM_DAYS)
        value = est.probability(route[0])
        checks = est.checks
        twin = network.segment(route[0]).twin_id
        assert est.probability(twin) == pytest.approx(value)
        assert est.checks == checks


class TestReverseExpansion:
    def test_reverse_mirror_of_forward(self, network):
        """On a symmetric two-way grid, the backward cover from X equals the
        forward cover from X's twin (paths reverse along twins)."""
        start = network.nearest_segment_linear(CENTER)
        twin = network.segment(start).twin_id
        forward = time_bounded_expansion(network, twin, 200.0, lambda s: 80.0)
        backward = time_bounded_expansion(
            network, start, 200.0, lambda s: 80.0, reverse=True
        )
        forward_roads = {
            network.segment(s).canonical_id() for s in forward.cover
        }
        backward_roads = {
            network.segment(s).canonical_id() for s in backward.cover
        }
        assert forward_roads == backward_roads


class TestReverseQuery:
    def test_bad_kind(self, engine):
        """The reverse region is Bmax alone: there is no kind to pick."""
        con = engine.con_index(300)
        with pytest.raises(TypeError):
            reverse_bounding_region(con, 0, T, 600, kind="near")

    def test_reverse_cover_grows_with_duration(self, engine):
        con = engine.con_index(300)
        target = engine.st_index(300).find_start_segment(CENTER)
        small = reverse_bounding_region(con, target, T, 300)
        large = reverse_bounding_region(con, target, T, 1200)
        assert target in small.cover
        assert small.cover <= large.cover
        assert len(large.cover) > len(small.cover)

    def test_reverse_near_within_far(self, engine):
        """Backwards too, the Near (minimum-speed) region lies in Bmax."""
        con = engine.con_index(300)
        near_con = MinSpeedConnectionIndex(engine.network, engine.database, 300)
        target = engine.st_index(300).find_start_segment(CENTER)
        for duration in (60, 300, 600, 900):
            near = reverse_bounding_region(near_con, target, T, duration)
            far = reverse_bounding_region(con, target, T, duration)
            assert near.cover <= far.cover

    def test_reverse_region_contains_upstream(self, engine, test_dataset):
        """Forward ES agreement: r is in the reverse region of S iff S is in
        the forward region of r (same probability formula both ways)."""
        query = SQuery(CENTER, T, 600, 0.2)
        reverse_es = r_query(engine, query, algorithm="es")
        ours = r_query(engine, query, algorithm="sqmb_tbs")
        assert ours.segments == reverse_es.segments

    def test_reverse_dual_of_forward(self, engine, test_dataset):
        """Spot-check duality through the raw estimators."""
        from repro.core.probability import ProbabilityEstimator

        st = engine.st_index(300)
        target = st.find_start_segment(CENTER)
        reverse_est = ReverseProbabilityEstimator(st, target, T, 600, 10)
        # Pick an origin the reverse query claims reachable-from.
        query = SQuery(CENTER, T, 600, 0.2)
        region = r_query(engine, query, algorithm="es").segments
        if not region:
            pytest.skip("empty reverse region")
        origin = sorted(region)[0]
        forward_est = ProbabilityEstimator(st, origin, T, 600, 10)
        assert forward_est.probability(target) == pytest.approx(
            reverse_est.probability(origin)
        )

    def test_reverse_query_engine_api(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        result = r_query(engine, query)
        assert isinstance(result.segments, set)
        assert result.cost.wall_time_s > 0
        with pytest.raises(ValueError):
            r_query(engine, query, algorithm="magic")

    def test_reverse_cheaper_than_reverse_es(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        ours = r_query(engine, query)
        baseline = r_query(engine, query, algorithm="es")
        assert ours.cost.io.page_reads < baseline.cost.io.page_reads
