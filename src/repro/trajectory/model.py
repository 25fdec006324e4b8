"""Trajectory data models (§2.1).

A trajectory is a sequence of spatio-temporal points, each carrying a
trajectory ID, spatial information, a timestamp and properties such as
speed.  Following the paper, *one moving object has one trajectory per day*
and "the same taxi at different dates [counts] as different trajectories,
e.g., with different trajectory IDs" (§4.1) — :func:`make_trajectory_id`
encodes exactly that.

Times within a day are seconds since local midnight (0 .. 86400); dates are
dense day indices ``0 .. m-1`` over the dataset span.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spatial.geometry import Point

SECONDS_PER_DAY = 86_400


def make_trajectory_id(taxi_id: int, date: int, num_taxis: int) -> int:
    """Unique trajectory ID for one taxi-day."""
    if not 0 <= taxi_id < num_taxis:
        raise ValueError(f"taxi_id {taxi_id} out of range [0, {num_taxis})")
    if date < 0:
        raise ValueError(f"date must be >= 0, got {date}")
    return date * num_taxis + taxi_id


def day_time(hours: int, minutes: int = 0, seconds: int = 0) -> int:
    """Seconds since midnight for ``hh:mm:ss``."""
    if not (0 <= hours < 24 and 0 <= minutes < 60 and 0 <= seconds < 60):
        raise ValueError(f"invalid time {hours:02d}:{minutes:02d}:{seconds:02d}")
    return hours * 3600 + minutes * 60 + seconds


@dataclass(frozen=True, slots=True)
class GPSPoint:
    """One raw GPS record: the five core attributes of §4.1.

    Attributes:
        trajectory_id: owning trajectory (taxi-day).
        position: location in the local metric plane.
        time_s: seconds since midnight of the trajectory's date.
        speed_mps: instantaneous speed in metres/second.
    """

    trajectory_id: int
    position: Point
    time_s: float
    speed_mps: float


@dataclass
class RawTrajectory:
    """A day of raw GPS records for one taxi."""

    trajectory_id: int
    taxi_id: int
    date: int
    points: list[GPSPoint]

    def __len__(self) -> int:
        return len(self.points)

    def check_monotone(self) -> None:
        for a, b in zip(self.points, self.points[1:]):
            if b.time_s < a.time_s:
                raise ValueError(
                    f"trajectory {self.trajectory_id} timestamps go backwards"
                )


@dataclass(frozen=True, slots=True)
class SegmentVisit:
    """A map-matched traversal event: the trajectory entered a segment.

    Attributes:
        segment_id: re-segmented road segment traversed.
        time_s: entry time, seconds since midnight.
        speed_mps: observed travel speed on the segment.
    """

    segment_id: int
    time_s: float
    speed_mps: float


@dataclass
class MatchedTrajectory:
    """A cleaned, map-matched trajectory: ordered segment visits for one day."""

    trajectory_id: int
    taxi_id: int
    date: int
    visits: list[SegmentVisit]

    def __len__(self) -> int:
        return len(self.visits)

    def segments(self) -> list[int]:
        return [visit.segment_id for visit in self.visits]

    def check_monotone(self) -> None:
        for a, b in zip(self.visits, self.visits[1:]):
            if b.time_s < a.time_s:
                raise ValueError(
                    f"trajectory {self.trajectory_id} visit times go backwards"
                )
