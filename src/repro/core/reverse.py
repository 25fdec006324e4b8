"""Reverse spatio-temporal reachability queries.

The paper's location-based-advertising application (§1.1, Fig 1.2) really
asks the *dual* of the s-query: from which road segments can customers
reach the mall within ``L`` minutes — i.e. find every segment ``r`` such
that on at least a ``Prob`` fraction of days some trajectory passed ``r``
during the first slot ``[T, T+Δt]`` and then reached the target ``S``
within ``[T, T+L]``.

The machinery mirrors the forward query with the direction flipped:

* the *reverse* probability fixes the target's window ``[T, T+L]`` once and
  intersects each candidate's *first-slot* window against it (cheaper per
  check than the forward estimator, which reads the whole window per
  candidate);
* the bounding regions come from Con-Index entries computed by *backward*
  network expansion over predecessors (``kind="far_rev"/"near_rev"``);
* trace-back search and the exhaustive baseline are reused unchanged —
  they only consume ``probability(segment)`` and undirected adjacency.
"""

from __future__ import annotations

from repro.core.con_index import ConnectionIndex
from repro.core.prob_kernel import ColumnarEq31Estimator
from repro.core.probability import DEPARTURE_WINDOW_S
from repro.core.query import BoundingRegion
from repro.core.sqmb import bounding_region


class ReverseProbabilityEstimator(ColumnarEq31Estimator):
    """Eq. 3.1 with the roles of start and target segments swapped.

    ``probability(r)`` is the fraction of days on which a single trajectory
    passed ``r`` in ``[T, T+Δt]`` and the fixed target segment within
    ``[T, T+L]``.  The fixed side of the columnar kernel is the *target's*
    full query window (gathered once); each candidate pays only its own
    departure-window read plus the membership probe — cheaper per check
    than the forward estimator, which reads the whole window per
    candidate.

    Args:
        index: the ST-Index to read time lists from.
        target_segment: the destination ``S`` resolved to a road segment
            (``start_segment`` on the instance, the name TBS and ES read).
        start_time_s: ``T``.
        duration_s: ``L``.
        num_days: ``m``.
    """

    def _fixed_window(self) -> tuple[float, float]:
        return (self.start_time_s, self.start_time_s + self.duration_s)

    def _candidate_window(self) -> tuple[float, float]:
        return (
            self.start_time_s,
            self.start_time_s + min(DEPARTURE_WINDOW_S, self.duration_s),
        )


def reverse_bounding_region(
    con_index: ConnectionIndex,
    target_segment: int,
    start_time_s: float,
    duration_s: float,
    kind: str = "far",
) -> BoundingRegion:
    """Algorithm 1 run backwards: who can reach the target within ``L``.

    :func:`~repro.core.sqmb.bounding_region` over the Con-Index's reverse
    entries (backward expansion over predecessors); ``kind`` is ``"far"``
    (maximum region) or ``"near"`` (minimum region), anything else raises
    ``ValueError``.
    """
    return bounding_region(
        con_index, [target_segment], start_time_s, duration_s, kind,
        reverse=True,
    )
