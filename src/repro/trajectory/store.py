"""The cleaned trajectory database.

Holds the map-matched trajectories that pre-processing emits and index
construction consumes, plus the aggregate statistics the paper reports in
Table 4.1 (taxis, days, record counts).  Per-segment per-hour speed
statistics — the raw material for the Con-Index's Far bounds — are
the speed model: sorted :data:`SPEED_COLUMNS` arrays that
:meth:`~TrajectoryDatabase.finalize` folds newly added visits into in one
vectorised pass, and that :meth:`~TrajectoryDatabase.speed_bounds` looks
up for a whole CSR at once.  A database restored from them keeps folding.

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


#: The speed model's aligned columns: packed ``segment * 24 + hour`` keys,
#: strictly ascending, and each key's observed min / max / sum of speeds
#: and visit count (zero speeds excluded).
SPEED_COLUMNS = ("keys", "stats_min", "stats_max", "stats_sum", "stats_count")
_SPEED_DTYPES = (np.int64, np.float64, np.float64, np.float64, np.int64)


def _grouped(keys, mins, maxs, sums, counts) -> tuple[np.ndarray, ...]:
    """The :data:`SPEED_COLUMNS` of rows with these ``keys``, equal keys
    folded into one (stably, so sums add in row order)."""
    order = np.argsort(keys, kind="stable")
    unique_keys, starts = np.unique(keys[order], return_index=True)
    return (
        unique_keys,
        np.minimum.reduceat(mins[order], starts),
        np.maximum.reduceat(maxs[order], starts),
        np.add.reduceat(sums[order], starts),
        np.add.reduceat(counts[order], starts),
    )


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
        # The speed model: the :data:`SPEED_COLUMNS`, keys ascending.
        self._speed = tuple(np.empty(0, dtype) for dtype in _SPEED_DTYPES)
        self._unfolded: list[_CompactTrajectory] = []  # added since the last fold
        #: Moves on every ``add``: Con-Index state derived at another
        #: revision may rest on bounds that no longer hold.
        self.speed_revision = 0

    # -- ingestion ------------------------------------------------------------

    def add(self, trajectory: MatchedTrajectory) -> None:
        """Ingest one matched trajectory (compacted immediately)."""
        visits = trajectory.visits
        self.add_arrays(
            trajectory.trajectory_id,
            trajectory.taxi_id,
            trajectory.date,
            np.fromiter((v.segment_id for v in visits), dtype=np.int32, count=len(visits)),
            np.fromiter((v.time_s for v in visits), dtype=np.float64, count=len(visits)),
            np.fromiter((v.speed_mps for v in visits), dtype=np.float32, count=len(visits)),
        )

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
        compact = self._trajectories[trajectory_id] = _CompactTrajectory(
            trajectory_id=trajectory_id,
            taxi_id=taxi_id,
            date=date,
            segments=np.asarray(segments, dtype=np.int32),
            times=np.asarray(times, dtype=np.float64),
            speeds=np.asarray(speeds, dtype=np.float32),
        )
        self._unfolded.append(compact)
        self.speed_revision += 1

    def finalize(self) -> None:
        """Fold the visits added since the last fold into the speed
        statistics, in one vectorised pass (idempotent).

        min, max, sum and count merge, so the folded statistics — a
        restored model's included — are kept, not recomputed.
        """
        if not self._unfolded:
            return
        compacts, self._unfolded = self._unfolded, []
        segments = np.concatenate([c.segments for c in compacts]).astype(np.int64)
        hours = np.concatenate([c.times for c in compacts]) // 3600
        speeds = np.concatenate([c.speeds for c in compacts]).astype(np.float64)
        positive = speeds > 0  # paper: zero speeds removed from statistics
        keys = segments[positive] * HOURS_PER_DAY + hours[positive].astype(np.int64) % HOURS_PER_DAY
        speeds = speeds[positive]
        added = _grouped(keys, speeds, speeds, speeds, np.ones(keys.size, np.int64))
        self._speed = _grouped(*map(np.concatenate, zip(self._speed, added)))

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

    def _rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each packed key's row in the speed model (clipped into range)
        and whether that row holds observations of it."""
        model_keys, counts = self._speed[0], self._speed[4]
        rows = np.minimum(np.searchsorted(model_keys, keys), model_keys.size - 1)
        if not model_keys.size:
            return rows, np.zeros(keys.shape, dtype=bool)
        return rows, (model_keys[rows] == keys) & (counts[rows] > 0)

    def speed_stats(self, segment_id: int, hour: int) -> SpeedStats | None:
        """Observed stats for a segment at an hour of day, if any."""
        self.finalize()
        rows, found = self._rows(np.array([segment_id * HOURS_PER_DAY + hour % HOURS_PER_DAY]))
        if not found[0]:
            return None
        _, mins, maxs, sums, counts = (column[rows[0]].item() for column in self._speed)
        return SpeedStats(min_mps=mins, max_mps=maxs, mean_mps=sums / counts, count=counts)

    def speed_bounds(
        self, segment_ids: np.ndarray, hour: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`observed_speed_bounds` of many segments at one hour of day,
        as ``(found, min, max)`` arrays aligned with ``segment_ids``."""
        self.finalize()
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        mins, maxs = self._speed[1], self._speed[2]
        found = np.zeros(segment_ids.size, dtype=bool)
        lo, hi = np.full(found.size, np.inf), np.zeros(found.size)
        exact = None
        for probe in (hour, hour - 1, hour + 1):
            rows, hit = self._rows(segment_ids * HOURS_PER_DAY + probe % HOURS_PER_DAY)
            if exact is None:
                exact = hit
            else:
                hit &= ~exact  # the exact hour has data; neighbours not needed
            lo[hit] = np.minimum(lo[hit], mins[rows[hit]])
            hi[hit] = np.maximum(hi[hit], maxs[rows[hit]])
            found |= hit
        return found, lo, hi

    def observed_speed_bounds(
        self, segment_id: int, time_s: float
    ) -> tuple[float, float] | None:
        """(min, max) observed speed for the hour containing ``time_s``.

        Falls back to the neighbouring hours so sparsely travelled segments
        still get bounds (the paper's 21k-taxi fleet is dense enough to
        avoid this; small synthetic fleets are not).  Returns None for a
        segment with no observations at all near that hour.
        """
        found, lo, hi = self.speed_bounds(np.array([segment_id]), int(time_s // 3600))
        return (float(lo[0]), float(hi[0])) if found[0] else None

    def export_speed_model(self) -> dict:
        """Extract the folded per-(segment, hour) speed statistics.

        The Con-Index derives entirely from :meth:`speed_bounds` plus the
        network topology, and every executor reads only ``num_days`` — so
        a worker process can serve queries from this statistics-only
        payload without shipping raw trajectories.

        Returns:
            A picklable dict for :meth:`from_speed_model`: the scalar
            sizes and the :data:`SPEED_COLUMNS` arrays.
        """
        self.finalize()
        return {
            "num_taxis": self.num_taxis,
            "num_days": self.num_days,
            "num_trajectories": len(self._trajectories),
            **dict(zip(SPEED_COLUMNS, self._speed)),
        }

    @classmethod
    def from_speed_model(cls, model: dict) -> "TrajectoryDatabase":
        """Rebuild a statistics-only database from :meth:`export_speed_model`.

        The result answers :meth:`speed_stats` / :meth:`speed_bounds` and
        carries ``num_days`` (Eq. 3.1's ``m``) identically to the source,
        but holds no trajectories: :meth:`__iter__` yields only those
        added since, whose visits fold into the restored statistics.
        """
        database = cls(num_taxis=model["num_taxis"], num_days=model["num_days"])
        database._speed = tuple(
            np.asarray(model[name], dtype) for name, dtype in zip(SPEED_COLUMNS, _SPEED_DTYPES)
        )
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
