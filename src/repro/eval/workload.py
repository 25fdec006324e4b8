"""Query workload generation.

Parameterised query batches for throughput-style measurements: random
locations (biased downtown, where queries make sense), random start times,
and the Table 4.2 parameter grids.  Deterministic given the seed.

The batches are plain query lists, shaped for
:meth:`repro.api.ReachabilityClient.run_batch` — the pipeline dedups the
bounding regions the batch's queries share and keeps buffer pools warm
across it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.query import MQuery, SQuery
from repro.network.model import RoadNetwork
from repro.spatial.geometry import Point
from repro.trajectory.model import SECONDS_PER_DAY


@dataclass
class QueryWorkload:
    """Random-but-reproducible query batches over a road network.

    Args:
        network: road network supplying the spatial extent.
        seed: RNG seed.
        center_fraction: fraction of the city half-width within which query
            locations are drawn (queries in the far periphery hit empty
            data and answer trivially).
    """

    network: RoadNetwork
    seed: int = 7
    center_fraction: float = 0.5

    def _rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    def random_location(self, rng: random.Random) -> Point:
        bounds = self.network.bounds()
        half_w = bounds.width / 2.0 * self.center_fraction
        half_h = bounds.height / 2.0 * self.center_fraction
        center = bounds.center
        return Point(
            center.x + rng.uniform(-half_w, half_w),
            center.y + rng.uniform(-half_h, half_h),
        )

    def s_queries(
        self,
        count: int,
        duration_s: float = 600.0,
        prob: float = 0.2,
        start_time_s: float | None = None,
        salt: str = "s",
    ) -> list[SQuery]:
        """A batch of s-queries at random downtown locations.

        Args:
            salt: RNG stream discriminator — callers drawing several
                independent traffic shares (e.g. forward and reverse
                queries) pass distinct salts so the shares do not
                duplicate each other query for query.
        """
        rng = self._rng(salt)
        queries = []
        for _ in range(count):
            start = (
                start_time_s
                if start_time_s is not None
                else rng.uniform(0, SECONDS_PER_DAY - duration_s - 1)
            )
            queries.append(
                SQuery(
                    location=self.random_location(rng),
                    start_time_s=start,
                    duration_s=duration_s,
                    prob=prob,
                )
            )
        return queries

    def m_queries(
        self,
        count: int,
        locations_per_query: int = 3,
        duration_s: float = 1200.0,
        prob: float = 0.2,
        start_time_s: float | None = None,
    ) -> list[MQuery]:
        """A batch of m-queries, each with several downtown locations."""
        rng = self._rng("m")
        queries = []
        for _ in range(count):
            start = (
                start_time_s
                if start_time_s is not None
                else rng.uniform(0, SECONDS_PER_DAY - duration_s - 1)
            )
            queries.append(
                MQuery(
                    locations=tuple(
                        self.random_location(rng)
                        for _ in range(locations_per_query)
                    ),
                    start_time_s=start,
                    duration_s=duration_s,
                    prob=prob,
                )
            )
        return queries

    def mixed_batch(
        self,
        s_count: int,
        m_count: int,
        duration_s: float = 600.0,
        prob: float = 0.2,
        start_time_s: float | None = None,
    ) -> list[SQuery | MQuery]:
        """An interleaved s-/m-query batch (multi-user traffic shape)."""
        batch: list[SQuery | MQuery] = []
        batch.extend(
            self.s_queries(s_count, duration_s, prob, start_time_s)
        )
        batch.extend(
            self.m_queries(
                m_count, duration_s=duration_s * 2, prob=prob,
                start_time_s=start_time_s,
            )
        )
        rng = self._rng("mix")
        rng.shuffle(batch)
        return batch
