"""Tests for incremental index maintenance (appending new days)."""

import pytest

from benchmarks.client_protocol import s_query
from repro.core.engine import ReachabilityEngine
from repro.core.probability import ProbabilityEstimator
from repro.core.st_index import STIndex
from repro.network.generator import grid_city
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

T = float(day_time(11))


@pytest.fixture()
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


def make_day(route, day, traj_id):
    return MatchedTrajectory(
        trajectory_id=traj_id, taxi_id=traj_id % 5, date=day,
        visits=[SegmentVisit(route[i], T + 10 + 30 * i, 6.0)
                for i in range(len(route))],
    )


@pytest.fixture()
def route(network):
    """Simple deterministic route via successors from segment 0."""
    path = [0]
    while len(path) < 4:
        path.append(network.successors(path[-1])[0])
    return path


class TestAppendTrajectories:
    def test_append_before_build_rejected(self, network, route):
        index = STIndex(network, 300)
        with pytest.raises(RuntimeError):
            index.append_trajectories([make_day(route, 0, 0)])

    def test_appended_day_visible(self, network, route):
        db = TrajectoryDatabase(num_taxis=5, num_days=2)
        db.add(make_day(route, 0, 0))
        db.add(make_day(route, 1, 1))
        db.finalize()
        index = STIndex(network, 300)
        index.build(db)
        before = index.time_list(route[0], index.slot_of(T))
        assert set(before) == {0, 1}
        touched = index.append_trajectories([make_day(route, 2, 2)])
        assert touched == len(set(route))  # one entry per visited segment
        after = index.time_list(route[0], index.slot_of(T))
        assert set(after) == {0, 1, 2}
        assert after[2] == {2}
        # Existing days unchanged.
        assert after[0] == before[0]

    def test_merge_with_existing_day(self, network, route):
        db = TrajectoryDatabase(num_taxis=5, num_days=1)
        db.add(make_day(route, 0, 0))
        db.finalize()
        index = STIndex(network, 300)
        index.build(db)
        index.append_trajectories([make_day(route, 0, 1)])
        merged = index.time_list(route[0], index.slot_of(T))
        assert merged[0] == {0, 1}

    def test_append_to_unseen_entry(self, network, route):
        db = TrajectoryDatabase(num_taxis=5, num_days=1)
        db.add(make_day(route[:2], 0, 0))
        db.finalize()
        index = STIndex(network, 300)
        index.build(db)
        # route[3] was never indexed; appending creates its entry.
        assert index.time_entries(route[3], index.slot_of(T)) == {}
        index.append_trajectories([make_day(route, 0, 1)])
        assert index.time_entries(route[3], index.slot_of(T)) != {}

    def test_probabilities_reflect_new_days(self, network, route):
        db = TrajectoryDatabase(num_taxis=5, num_days=2)
        db.add(make_day(route, 0, 0))
        db.add(make_day(route, 1, 1))
        db.finalize()
        index = STIndex(network, 300)
        index.build(db)
        est = ProbabilityEstimator(index, route[0], T, 600, db.num_days)
        assert est.probability(route[2]) == pytest.approx(1.0)
        # Two new days arrive: one drives the route, one does not.
        db.extend_days(4)
        new = [make_day(route, 2, 2)]
        index.append_trajectories(new)
        est = ProbabilityEstimator(index, route[0], T, 600, db.num_days)
        # 3 of 4 days support the route now.
        assert est.probability(route[2]) == pytest.approx(3 / 4)


class TestExtendDays:
    def test_shrink_rejected(self):
        db = TrajectoryDatabase(num_taxis=2, num_days=5)
        with pytest.raises(ValueError):
            db.extend_days(3)

    def test_extend_allows_new_dates(self, network, route):
        db = TrajectoryDatabase(num_taxis=5, num_days=1)
        with pytest.raises(ValueError):
            db.add(make_day(route, 1, 0))
        db.extend_days(2)
        db.add(make_day(route, 1, 0))
        assert db.stats().num_days == 2


class TestEndToEndIncremental:
    def test_engine_queries_after_append(self, network, route):
        """A query engine stays correct as new days stream in."""
        from repro.core.query import SQuery
        from repro.spatial.geometry import Point

        db = TrajectoryDatabase(num_taxis=5, num_days=2)
        for day in range(2):
            db.add(make_day(route, day, day))
        db.finalize()
        engine = ReachabilityEngine(network, db)
        st = engine.st_index(300)
        location = network.segment(route[0]).midpoint
        query = SQuery(location, T, 600, 0.9)
        first = s_query(engine, query, algorithm="es")
        assert route[2] in first.segments or (
            network.segment(route[2]).twin_id in first.segments
        )
        # A new day with no driving arrives: probabilities drop below 0.9.
        db.extend_days(3)
        st.append_trajectories([])  # no trajectories that day
        second = s_query(engine, query, algorithm="es")
        assert second.probabilities[route[0]] == pytest.approx(2 / 3)
        assert not second.segments  # 2/3 < 0.9
