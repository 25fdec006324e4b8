"""Fig. 3.4's location -> start segment ``r0``, resolved exactly.

A query location maps to the road segment nearest to it: the minimum
point-to-polyline distance, ties to the smallest segment id (the two
carriageways of a two-way road share one polyline; a location on an
intersection touches every incident segment).  :class:`SegmentLocator` is
the one resolver of that contract, for one point
(``STIndex.find_start_segment``) and for a batch (the sharded dispatcher's
routing): one numpy point-to-edge pass over every polyline edge, then the
few segments within :data:`RESCORE_MARGIN` of the vector minimum are
re-scored with :meth:`~repro.network.model.RoadSegment.distance_to_point`.
The vector pass and that scalar arithmetic differ by a few ulps, far
inside the margin, so every exact-minimum segment is re-scored and the
answer is the scalar contract by construction — a pure function of the
geometry, which is what lets a worker's replica resolve exactly what the
dispatcher resolved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.spatial.geometry import Point, require_finite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.model import RoadNetwork

#: Relative margin (and, for a location on a road, absolute margin in
#: metres) around the vector minimum inside which segments are re-scored.
RESCORE_MARGIN = 1e-9


class SegmentLocator:
    """Every polyline edge of a network as arrays, for nearest-segment lookups.

    The geometry is read once; a locator does not follow later edits.
    """

    def __init__(self, network: RoadNetwork) -> None:
        self._segments = list(network.segments())
        edges = np.array(
            [
                (a.x, a.y, b.x, b.y)
                for segment in self._segments
                for a, b in zip(segment.shape[:-1], segment.shape[1:])
            ],
            dtype=float,
        ).reshape(-1, 4)
        #: Position in ``_segments`` of every edge's segment.
        self._edge_segment = np.repeat(
            np.arange(len(self._segments)),
            [len(segment.shape) - 1 for segment in self._segments],
        )
        self._sx, self._sy = edges[:, 0], edges[:, 1]
        self._dx, self._dy = edges[:, 2] - self._sx, edges[:, 3] - self._sy
        length_sq = self._dx * self._dx + self._dy * self._dy
        # A zero-length edge projects every point onto its start (t = 0).
        self._inv_length_sq = np.divide(
            1.0, length_sq, out=np.zeros_like(length_sq), where=length_sq > 0
        )

    def nearest(self, location: Point) -> int:
        """The start segment of one location."""
        return self.locate((location,))[0]

    def locate(self, locations: Sequence[Point], chunk: int = 256) -> list[int]:
        """Start segment ids of ``locations``, in order.

        Raises ``ValueError`` for a location with a NaN or infinite
        coordinate, and for an empty network.
        """
        if not self._segments:
            raise ValueError("empty spatial index")
        points = np.array(
            [require_finite(location).as_tuple() for location in locations],
            dtype=float,
        ).reshape(-1, 2)
        out: list[int] = []
        for lo in range(0, len(points), chunk):
            ax = points[lo : lo + chunk, :1] - self._sx
            ay = points[lo : lo + chunk, 1:] - self._sy
            t = ax * self._dx
            t += ay * self._dy
            t *= self._inv_length_sq
            np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
            ax -= t * self._dx
            ay -= t * self._dy
            # Squared distances (a square root per edge costs more than
            # the rest of the pass); the margin is applied in metres.
            squared = np.multiply(ax, ax, out=ax)
            squared += np.multiply(ay, ay, out=ay)
            best = np.sqrt(squared.min(axis=1, keepdims=True))
            limits = (best * (1.0 + RESCORE_MARGIN) + RESCORE_MARGIN) ** 2
            # Every exact-minimum segment has an edge inside the margin.
            for location, near in zip(locations[lo : lo + chunk], squared <= limits):
                candidates = [
                    self._segments[i]
                    for i in dict.fromkeys(self._edge_segment[near].tolist())
                ]
                out.append(
                    min(
                        (segment.distance_to_point(location), segment.segment_id)
                        for segment in candidates
                    )[1]
                )
        return out
