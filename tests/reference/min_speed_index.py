"""The paper's Near list (§3.2.2) as a test-side Con-Index.

The program keeps only the Far list: every road at its fastest observed
speed.  The Near list expanded the same entries at every road's slowest
observed speed, and Algorithm 1 built the minimum bounding region Bmin
from it.  Bmin was dropped because it always lies inside Bmax; this index
rebuilds it so the tests can keep checking that containment.
"""

from __future__ import annotations

import numpy as np

from repro.core.con_index import ConnectionIndex


class MinSpeedConnectionIndex(ConnectionIndex):
    """A :class:`ConnectionIndex` whose cost vectors use minimum speeds.

    Every bounding-region function takes it in place of the real index, so
    ``sqmb_bounding_region(MinSpeedConnectionIndex(...), ...)`` is Bmin.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._min_vectors: dict[int, np.ndarray] = {}

    def travel_time_vector(self, slot: int) -> np.ndarray:
        hour = self.slot_hour(slot)
        vector = self._min_vectors.get(hour)
        if vector is None:
            csr = self.network.csr()
            found, lo, _ = self.database.speed_bounds(csr.ids, hour)
            speeds = np.where(found, lo, 0.0)
            vector = np.full(csr.n, float("inf"))
            positive = speeds > 0
            vector[positive] = csr.lengths[positive] / speeds[positive]
            self._min_vectors[hour] = vector
        return vector
