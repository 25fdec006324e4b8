"""Tests for trajectory models, speed profiles and the database."""

import numpy as np
import pytest

from repro.network.model import RoadLevel
from repro.trajectory.model import (
    MatchedTrajectory,
    SECONDS_PER_DAY,
    SegmentVisit,
    day_time,
    make_trajectory_id,
)
from repro.trajectory.speed_profile import RushHour, SpeedProfile
from repro.trajectory.store import TrajectoryDatabase


class TestIds:
    def test_roundtrip(self):
        tid = make_trajectory_id(taxi_id=7, date=3, num_taxis=25)
        assert divmod(tid, 25) == (3, 7)  # (date, taxi_id)

    def test_uniqueness(self):
        ids = {
            make_trajectory_id(t, d, 10)
            for t in range(10)
            for d in range(30)
        }
        assert len(ids) == 300

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            make_trajectory_id(10, 0, 10)
        with pytest.raises(ValueError):
            make_trajectory_id(0, -1, 10)


class TestDayTime:
    def test_basic(self):
        assert day_time(0) == 0
        assert day_time(11) == 39600
        assert day_time(23, 59, 59) == SECONDS_PER_DAY - 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            day_time(24)
        with pytest.raises(ValueError):
            day_time(0, 60)


class TestMatchedTrajectory:
    def test_segments_and_monotone(self):
        traj = MatchedTrajectory(
            trajectory_id=0, taxi_id=0, date=0,
            visits=[SegmentVisit(1, 0.0, 5.0), SegmentVisit(2, 10.0, 5.0)],
        )
        assert traj.segments() == [1, 2]
        traj.check_monotone()

    def test_non_monotone_raises(self):
        traj = MatchedTrajectory(
            trajectory_id=0, taxi_id=0, date=0,
            visits=[SegmentVisit(1, 10.0, 5.0), SegmentVisit(2, 0.0, 5.0)],
        )
        with pytest.raises(ValueError):
            traj.check_monotone()


class TestSpeedProfile:
    def test_rush_hour_dips(self):
        profile = SpeedProfile()
        morning = profile.congestion_factor(day_time(7, 45))
        evening = profile.congestion_factor(day_time(18))
        midday = profile.congestion_factor(day_time(13))
        assert morning < 0.55
        assert evening < 0.5
        assert midday > 0.8

    def test_night_boost(self):
        profile = SpeedProfile()
        assert profile.congestion_factor(day_time(0, 30)) > 1.0

    def test_speed_by_level(self):
        profile = SpeedProfile()
        t = day_time(13)
        assert profile.speed(RoadLevel.PRIMARY, t) > profile.speed(
            RoadLevel.SECONDARY, t
        )

    def test_sample_speed_floor(self):
        import random

        profile = SpeedProfile()
        rng = random.Random(1)
        for _ in range(200):
            assert profile.sample_speed(RoadLevel.SECONDARY, 0, rng) >= 0.5

    def test_custom_rush_hour(self):
        profile = SpeedProfile(
            rush_hours=[RushHour(center_s=day_time(12), width_s=1800, depth=0.9)]
        )
        assert profile.congestion_factor(day_time(12)) < 0.2
        assert profile.congestion_factor(day_time(6)) >= 1.0

    def test_wraparound_midnight(self):
        profile = SpeedProfile(
            rush_hours=[RushHour(center_s=day_time(23, 50), width_s=1200, depth=0.5)],
            night_boost=1.0,
        )
        # 00:05 should feel the 23:50 dip through wrap-around.
        assert profile.congestion_factor(day_time(0, 5)) < 0.7


def _traj(tid, taxi, date, visits):
    return MatchedTrajectory(
        trajectory_id=tid, taxi_id=taxi, date=date,
        visits=[SegmentVisit(*v) for v in visits],
    )


class TestTrajectoryDatabase:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            TrajectoryDatabase(0, 10)

    def test_add_and_get(self):
        db = TrajectoryDatabase(2, 3)
        db.add(_traj(0, 0, 0, [(5, 100.0, 3.0), (6, 200.0, 4.0)]))
        got = db.get(0)
        assert got is not None
        assert got.segments() == [5, 6]
        assert got.visits[1].speed_mps == pytest.approx(4.0)
        assert db.get(99) is None

    def test_duplicate_rejected(self):
        db = TrajectoryDatabase(2, 3)
        db.add(_traj(0, 0, 0, [(5, 100.0, 3.0)]))
        with pytest.raises(ValueError):
            db.add(_traj(0, 0, 0, [(5, 100.0, 3.0)]))

    def test_date_out_of_range(self):
        db = TrajectoryDatabase(2, 3)
        with pytest.raises(ValueError):
            db.add(_traj(0, 0, 5, [(5, 100.0, 3.0)]))

    def test_add_arrays(self):
        db = TrajectoryDatabase(2, 3)
        db.add_arrays(1, 1, 0, [4, 5], [10.0, 20.0], [2.0, 3.0])
        assert db.get(1).segments() == [4, 5]
        with pytest.raises(ValueError):
            db.add_arrays(1, 1, 0, [4], [10.0], [2.0])

    def test_speed_stats_min_max_mean(self):
        db = TrajectoryDatabase(3, 2)
        hour11 = day_time(11)
        db.add(_traj(0, 0, 0, [(7, hour11, 2.0)]))
        db.add(_traj(1, 1, 0, [(7, hour11 + 60, 6.0)]))
        db.add(_traj(2, 2, 0, [(7, hour11 + 120, 4.0)]))
        stats = db.speed_stats(7, 11)
        assert stats.min_mps == pytest.approx(2.0)
        assert stats.max_mps == pytest.approx(6.0)
        assert stats.mean_mps == pytest.approx(4.0)
        assert stats.count == 3

    def test_speed_stats_absent(self):
        db = TrajectoryDatabase(1, 1)
        db.add(_traj(0, 0, 0, [(7, day_time(11), 2.0)]))
        assert db.speed_stats(7, 3) is None
        assert db.speed_stats(99, 11) is None

    def test_observed_bounds_hour_fallback(self):
        db = TrajectoryDatabase(1, 1)
        db.add(_traj(0, 0, 0, [(7, day_time(11), 2.0)]))
        # Hour 12 has no data; hour 11 is a neighbour.
        bounds = db.observed_speed_bounds(7, day_time(12, 30))
        assert bounds == (pytest.approx(2.0), pytest.approx(2.0))
        assert db.observed_speed_bounds(7, day_time(3)) is None
        assert db.observed_speed_bounds(999, day_time(11)) is None

    def test_observed_hour_ignores_its_neighbours(self):
        """An observed hour's bounds are its own; an unobserved one takes
        both neighbours' (across midnight too), for one segment or for an
        array of them at once."""
        db = TrajectoryDatabase(1, 1)
        for tid, (segment, hour, speed) in enumerate(
            [(7, 10, 1.0), (7, 11, 5.0), (7, 12, 9.0), (8, 23, 3.0), (8, 1, 4.0)]
        ):
            db.add(_traj(tid, 0, 0, [(segment, day_time(hour), speed)]))
        assert db.observed_speed_bounds(7, day_time(11, 30)) == (5.0, 5.0)
        assert db.observed_speed_bounds(7, day_time(13)) == (9.0, 9.0)
        assert db.observed_speed_bounds(8, day_time(0, 30)) == (3.0, 4.0)
        segments = np.array([7, 8, 99])
        for hour in range(24):
            found, lo, hi = db.speed_bounds(segments, hour)
            for i, segment in enumerate(segments.tolist()):
                scalar = db.observed_speed_bounds(segment, day_time(hour))
                assert scalar == ((lo[i], hi[i]) if found[i] else None)

    def test_stats_summary(self):
        db = TrajectoryDatabase(2, 2)
        db.add(_traj(0, 0, 0, [(1, 0.0, 1.0), (2, 5.0, 1.0)]))
        db.add(_traj(2, 0, 1, [(1, 0.0, 1.0)]))
        summary = db.stats()
        assert summary.num_trajectories == 2
        assert summary.num_visits == 3
        assert summary.num_taxis == 2
        assert len(summary.as_rows()) == 4

    def test_iter_compact_matches_objects(self):
        db = TrajectoryDatabase(2, 2)
        db.add(_traj(0, 0, 0, [(1, 0.0, 1.0), (2, 5.0, 2.0)]))
        compact = list(db.iter_compact())
        assert len(compact) == 1
        tid, date, segs, times = compact[0]
        assert tid == 0 and date == 0
        assert segs.dtype == np.int32
        assert list(segs) == [1, 2]
        assert list(times) == [0.0, 5.0]

    def test_finalize_idempotent(self):
        db = TrajectoryDatabase(1, 1)
        db.add(_traj(0, 0, 0, [(1, day_time(5), 3.0)]))
        db.finalize()
        first = db.speed_stats(1, 5)
        db.finalize()
        assert db.speed_stats(1, 5) == first

    def test_zero_speed_excluded_from_stats(self):
        db = TrajectoryDatabase(2, 1)
        db.add(_traj(0, 0, 0, [(1, day_time(5), 0.0)]))
        db.add(_traj(1, 1, 0, [(1, day_time(5), 3.0)]))
        stats = db.speed_stats(1, 5)
        assert stats.min_mps == pytest.approx(3.0)
        assert stats.count == 1
