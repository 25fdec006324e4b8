"""Midnight-semantics regression tests.

Before the fix, Algorithm 1's memoized entry hops *clamped* the slot at
the last slot of the day while the residual-carry expansion *wrapped*
modulo ``num_slots`` — a query near midnight mixed two different speed
models — and the ST-Index silently truncated query windows at
``SECONDS_PER_DAY``.  Time-of-day is cyclic: slots and windows now wrap.
"""

from __future__ import annotations

import pytest

from repro.core.con_index import ConnectionIndex
from repro.core.probability import ProbabilityEstimator
from repro.core.sqmb import sqmb_bounding_region
from repro.core.st_index import STIndex
from repro.network.generator import grid_city
from repro.trajectory.model import (
    SECONDS_PER_DAY,
    MatchedTrajectory,
    SegmentVisit,
    day_time,
)
from repro.trajectory.store import TrajectoryDatabase


@pytest.fixture()
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


def corridor(network, length=6):
    """A deterministic successor chain from segment 0."""
    path = [0]
    while len(path) < length:
        path.append(network.successors(path[-1])[0])
    return path


class TestConIndexSlotWrap:
    def test_slot_of_wraps_modulo_day(self, network):
        db = TrajectoryDatabase(num_taxis=1, num_days=1)
        db.finalize()
        con = ConnectionIndex(network, db, 300)
        assert con.slot_of(SECONDS_PER_DAY + 100) == con.slot_of(100)
        assert con.slot_of(SECONDS_PER_DAY) == 0
        assert con.slot_of(-60) == con.slot_of(SECONDS_PER_DAY - 60)

    def test_entry_hops_wrap_into_next_day(self, network):
        """A query whose hops cross midnight must use the *first* slots of
        the day for the post-midnight hops, not the clamped last slot.

        Hour 23 observations exist on the corridor's first segments only;
        hour 0 observations cover the whole corridor at high speed.  With
        wrap-around, the second Δt hop (past midnight) runs under the
        hour-0 speed model and reaches the far end of the corridor; the
        clamped pre-fix behaviour stayed in the data-starved hour-23 model.
        """
        route = corridor(network)
        db = TrajectoryDatabase(num_taxis=2, num_days=1)
        t_late = SECONDS_PER_DAY - 200.0
        # Hour 23: only the first two corridor segments ever observed, slow.
        db.add(
            MatchedTrajectory(
                0, 0, 0,
                [SegmentVisit(sid, t_late + i, 2.0) for i, sid in enumerate(route[:2])],
            )
        )
        # Hour 0: the whole corridor observed fast.
        db.add(
            MatchedTrajectory(
                1, 1, 0,
                [SegmentVisit(sid, 100.0 + i, 12.0) for i, sid in enumerate(route)],
            )
        )
        db.finalize()
        con = ConnectionIndex(network, db, 300)
        start_time = SECONDS_PER_DAY - 300.0  # the day's last 5-min slot
        region = sqmb_bounding_region(con, route[0], start_time, 600.0, "far")
        # Two hops: slot 287 (hour 23) then wrapped slot 0 (hour 0).  At
        # 12 m/s a 600 m segment costs 50 s, so the second hop sweeps the
        # whole corridor.
        assert set(route) <= region.cover

    def test_region_cache_key_identical_across_wrap(self, network):
        """slot_of(T) for T just past midnight equals slot_of(T mod day),
        so bounding regions stay shareable across the wrap."""
        db = TrajectoryDatabase(num_taxis=1, num_days=1)
        db.finalize()
        con = ConnectionIndex(network, db, 300)
        assert con.slot_of(SECONDS_PER_DAY + 150.0) == con.slot_of(150.0)


class TestSTIndexWindowWrap:
    def _db_with_visits(self, network, visits):
        db = TrajectoryDatabase(num_taxis=4, num_days=2)
        for trajectory_id, (date, segment_id, second) in enumerate(visits):
            db.add(
                MatchedTrajectory(
                    trajectory_id, trajectory_id, date,
                    [SegmentVisit(segment_id, second, 5.0)],
                )
            )
        db.finalize()
        return db

    def test_window_crossing_midnight_sees_both_sides(self, network):
        db = self._db_with_visits(
            network,
            [
                (0, 5, SECONDS_PER_DAY - 50.0),  # late-night visit
                (0, 5, 20.0),  # early-morning visit (same date)
                (1, 5, 7000.0),  # unrelated mid-day visit
            ],
        )
        index = STIndex(network, 300)
        index.build(db)
        window = index.trajectories_in_window(
            5, SECONDS_PER_DAY - 100.0, SECONDS_PER_DAY + 100.0
        )
        assert window == {0: {0, 1}}

    def test_wrapped_window_reentering_start_slot_yields_no_duplicates(
        self, network
    ):
        db = self._db_with_visits(network, [(0, 5, 20.0), (0, 5, 120.0)])
        index = STIndex(network, 300)
        index.build(db)
        # (100, day+50) wraps and re-enters slot 0, which contains the
        # window start: the plan reads that slot once per part, and the
        # per-visit seconds keep each visit in exactly one of them.
        plan = index.window_plan(100.0, SECONDS_PER_DAY + 50.0)
        assert [(first, last) for _, _, first, last in plan] == [(0, 287), (0, 0)]
        keys = index.gather_window_columns((5,), plan)[0][0]
        assert sorted(keys.tolist()) == [0, 1]

    def test_window_spanning_full_day_sees_everything(self, network):
        db = self._db_with_visits(
            network, [(0, 5, 100.0), (0, 5, 40000.0), (1, 5, 80000.0)]
        )
        index = STIndex(network, 300)
        index.build(db)
        window = index.trajectories_in_window(5, 500.0, 500.0 + SECONDS_PER_DAY)
        assert window == {0: {0, 1}, 1: {2}}

    def test_probability_window_crosses_midnight(self, network):
        """A trajectory reaching the target just after midnight counts for
        a query that starts before midnight (it was truncated away)."""
        route = corridor(network)
        db = TrajectoryDatabase(num_taxis=1, num_days=1)
        db.add(
            MatchedTrajectory(
                0, 0, 0,
                [
                    SegmentVisit(route[0], SECONDS_PER_DAY - 250.0, 6.0),
                    SegmentVisit(route[2], 100.0, 6.0),  # after the wrap
                ],
            )
        )
        db.finalize()
        index = STIndex(network, 300)
        index.build(db)
        estimator = ProbabilityEstimator(
            index, route[0], SECONDS_PER_DAY - 300.0, 600.0, db.num_days
        )
        assert estimator.start_days == 1
        assert estimator.probability(route[2]) == pytest.approx(1.0)
