"""The cleaned trajectory database.

Holds the map-matched trajectories that pre-processing emits and index
construction consumes, plus the aggregate statistics the paper reports in
Table 4.1 (taxis, days, record counts).  Per-segment per-hour speed
statistics — the raw material for the Con-Index's Near/Far bounds — are
computed in one vectorised pass at :meth:`finalize`.

Trajectories are stored *compactly* (numpy arrays per taxi-day) because the
synthetic fleet produces millions of segment visits; :meth:`__iter__`
reconstructs :class:`~repro.trajectory.model.MatchedTrajectory` objects
lazily for convenience, while index construction uses the zero-copy
:meth:`iter_compact` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.trajectory.model import MatchedTrajectory, SegmentVisit

HOURS_PER_DAY = 24


@dataclass(frozen=True)
class SpeedStats:
    """Observed min/max/mean speed for one (segment, hour-of-day) bucket."""

    min_mps: float
    max_mps: float
    mean_mps: float
    count: int


@dataclass
class DatasetStats:
    """Aggregate dataset description (cf. Table 4.1)."""

    num_taxis: int = 0
    num_days: int = 0
    num_trajectories: int = 0
    num_visits: int = 0

    def as_rows(self) -> list[tuple[str, str]]:
        return [
            ("Number of taxis", f"{self.num_taxis:,} unique taxis"),
            ("Duration", f"{self.num_days} days"),
            ("Number of trajectories", f"{self.num_trajectories:,}"),
            ("Number of segment-visit records", f"{self.num_visits:,}"),
        ]


@dataclass
class _CompactTrajectory:
    trajectory_id: int
    taxi_id: int
    date: int
    segments: np.ndarray  # int32
    times: np.ndarray  # float64 seconds since midnight
    speeds: np.ndarray  # float32 m/s


class TrajectoryDatabase:
    """Matched-trajectory store with vectorised speed statistics.

    Args:
        num_taxis: fleet size (trajectory-id codec parameter).
        num_days: dataset span ``m`` — the denominator of Eq. 3.1.
    """

    def __init__(self, num_taxis: int, num_days: int) -> None:
        if num_taxis <= 0 or num_days <= 0:
            raise ValueError("num_taxis and num_days must be positive")
        self.num_taxis = num_taxis
        self.num_days = num_days
        self._trajectories: dict[int, _CompactTrajectory] = {}
        self._stats_min: dict[int, float] = {}
        self._stats_max: dict[int, float] = {}
        self._stats_sum: dict[int, float] = {}
        self._stats_count: dict[int, int] = {}
        self._finalized = False

    # -- ingestion ------------------------------------------------------------

    def add(self, trajectory: MatchedTrajectory) -> None:
        """Ingest one matched trajectory (compacted immediately)."""
        if trajectory.trajectory_id in self._trajectories:
            raise ValueError(f"duplicate trajectory id {trajectory.trajectory_id}")
        if not 0 <= trajectory.date < self.num_days:
            raise ValueError(
                f"trajectory date {trajectory.date} outside [0, {self.num_days})"
            )
        visits = trajectory.visits
        compact = _CompactTrajectory(
            trajectory_id=trajectory.trajectory_id,
            taxi_id=trajectory.taxi_id,
            date=trajectory.date,
            segments=np.fromiter(
                (v.segment_id for v in visits), dtype=np.int32, count=len(visits)
            ),
            times=np.fromiter(
                (v.time_s for v in visits), dtype=np.float64, count=len(visits)
            ),
            speeds=np.fromiter(
                (v.speed_mps for v in visits), dtype=np.float32, count=len(visits)
            ),
        )
        self._trajectories[trajectory.trajectory_id] = compact
        self._finalized = False

    def add_arrays(
        self,
        trajectory_id: int,
        taxi_id: int,
        date: int,
        segments,
        times,
        speeds,
    ) -> None:
        """Fast ingestion path from parallel sequences (no visit objects)."""
        if trajectory_id in self._trajectories:
            raise ValueError(f"duplicate trajectory id {trajectory_id}")
        if not 0 <= date < self.num_days:
            raise ValueError(f"trajectory date {date} outside [0, {self.num_days})")
        self._trajectories[trajectory_id] = _CompactTrajectory(
            trajectory_id=trajectory_id,
            taxi_id=taxi_id,
            date=date,
            segments=np.asarray(segments, dtype=np.int32),
            times=np.asarray(times, dtype=np.float64),
            speeds=np.asarray(speeds, dtype=np.float32),
        )
        self._finalized = False

    def finalize(self) -> None:
        """Recompute speed statistics in one vectorised pass (idempotent)."""
        if self._finalized:
            return
        self._stats_min.clear()
        self._stats_max.clear()
        self._stats_sum.clear()
        self._stats_count.clear()
        seg_parts = []
        hour_parts = []
        speed_parts = []
        for compact in self._trajectories.values():
            if len(compact.segments) == 0:
                continue
            seg_parts.append(compact.segments.astype(np.int64))
            hour_parts.append(
                (compact.times // 3600).astype(np.int64) % HOURS_PER_DAY
            )
            speed_parts.append(compact.speeds.astype(np.float64))
        if not seg_parts:
            self._finalized = True
            return
        segments = np.concatenate(seg_parts)
        hours = np.concatenate(hour_parts)
        speeds = np.concatenate(speed_parts)
        positive = speeds > 0  # paper: zero speeds removed from statistics
        segments, hours, speeds = segments[positive], hours[positive], speeds[positive]
        keys = segments * HOURS_PER_DAY + hours
        order = np.argsort(keys, kind="stable")
        keys, speeds = keys[order], speeds[order]
        unique_keys, starts = np.unique(keys, return_index=True)
        mins = np.minimum.reduceat(speeds, starts)
        maxs = np.maximum.reduceat(speeds, starts)
        sums = np.add.reduceat(speeds, starts)
        counts = np.diff(np.append(starts, len(speeds)))
        self._stats_min = dict(zip(unique_keys.tolist(), mins.tolist()))
        self._stats_max = dict(zip(unique_keys.tolist(), maxs.tolist()))
        self._stats_sum = dict(zip(unique_keys.tolist(), sums.tolist()))
        self._stats_count = dict(zip(unique_keys.tolist(), counts.tolist()))
        self._finalized = True

    def extend_days(self, new_num_days: int) -> None:
        """Grow the dataset's day span (for incrementally appended data).

        ``num_days`` is the denominator ``m`` of Eq. 3.1, so extending it
        changes every probability; it can only grow.
        """
        if new_num_days < self.num_days:
            raise ValueError(
                f"cannot shrink num_days from {self.num_days} to {new_num_days}"
            )
        self.num_days = new_num_days

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self) -> Iterator[MatchedTrajectory]:
        for compact in self._trajectories.values():
            yield self._inflate(compact)

    def get(self, trajectory_id: int) -> MatchedTrajectory | None:
        compact = self._trajectories.get(trajectory_id)
        return self._inflate(compact) if compact is not None else None

    def iter_compact(
        self,
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Fast path: yield ``(trajectory_id, date, segments, times)``."""
        for compact in self._trajectories.values():
            yield (
                compact.trajectory_id,
                compact.date,
                compact.segments,
                compact.times,
            )

    @staticmethod
    def _inflate(compact: _CompactTrajectory) -> MatchedTrajectory:
        visits = [
            SegmentVisit(int(s), float(t), float(v))
            for s, t, v in zip(compact.segments, compact.times, compact.speeds)
        ]
        return MatchedTrajectory(
            trajectory_id=compact.trajectory_id,
            taxi_id=compact.taxi_id,
            date=compact.date,
            visits=visits,
        )

    # -- speed statistics -----------------------------------------------------------

    def speed_stats(self, segment_id: int, hour: int) -> SpeedStats | None:
        """Observed stats for a segment at an hour of day, if any."""
        self.finalize()
        key = segment_id * HOURS_PER_DAY + (hour % HOURS_PER_DAY)
        count = self._stats_count.get(key)
        if not count:
            return None
        return SpeedStats(
            min_mps=self._stats_min[key],
            max_mps=self._stats_max[key],
            mean_mps=self._stats_sum[key] / count,
            count=int(count),
        )

    def observed_speed_bounds(
        self, segment_id: int, time_s: float
    ) -> tuple[float, float] | None:
        """(min, max) observed speed for the hour containing ``time_s``.

        Falls back to the neighbouring hours so sparsely travelled segments
        still get bounds (the paper's 21k-taxi fleet is dense enough to
        avoid this; small synthetic fleets are not).  Returns None for a
        segment with no observations at all near that hour.
        """
        self.finalize()
        hour = int(time_s // 3600) % HOURS_PER_DAY
        lo = float("inf")
        hi = 0.0
        found = False
        for probe in (hour, (hour - 1) % 24, (hour + 1) % 24):
            key = segment_id * HOURS_PER_DAY + probe
            if self._stats_count.get(key):
                lo = min(lo, self._stats_min[key])
                hi = max(hi, self._stats_max[key])
                found = True
            if found and probe == hour:
                # the exact hour has data; neighbours not needed
                break
        if not found:
            return None
        return lo, hi

    def export_speed_model(self) -> dict:
        """Extract the finalized per-(segment, hour) speed statistics.

        The Con-Index derives entirely from :meth:`observed_speed_bounds`
        plus the network topology, and every executor reads only
        ``num_days`` — so a worker process can serve queries from this
        statistics-only payload without shipping raw trajectories.

        Returns:
            A picklable dict for :meth:`from_speed_model`.
        """
        self.finalize()
        return {
            "num_taxis": self.num_taxis,
            "num_days": self.num_days,
            "num_trajectories": len(self._trajectories),
            "stats_min": dict(self._stats_min),
            "stats_max": dict(self._stats_max),
            "stats_sum": dict(self._stats_sum),
            "stats_count": dict(self._stats_count),
        }

    @classmethod
    def from_speed_model(cls, model: dict) -> "TrajectoryDatabase":
        """Rebuild a statistics-only database from :meth:`export_speed_model`.

        The result answers :meth:`speed_stats` / :meth:`observed_speed_bounds`
        and carries ``num_days`` (Eq. 3.1's ``m``) identically to the
        source, but holds no trajectories — :meth:`__iter__` is empty and
        adding new data would wrongly reset the imported statistics, so
        ingestion is not supported on a restored instance.
        """
        database = cls(num_taxis=model["num_taxis"], num_days=model["num_days"])
        database._stats_min = dict(model["stats_min"])
        database._stats_max = dict(model["stats_max"])
        database._stats_sum = dict(model["stats_sum"])
        database._stats_count = dict(model["stats_count"])
        database._finalized = True
        return database

    def stats(self) -> DatasetStats:
        return DatasetStats(
            num_taxis=self.num_taxis,
            num_days=self.num_days,
            num_trajectories=len(self._trajectories),
            num_visits=sum(
                len(c.segments) for c in self._trajectories.values()
            ),
        )
