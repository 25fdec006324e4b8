"""Time-bounded network expansion (Papadias et al. [21] style).

Budgeted shortest-arrival expansion over the segment graph with
per-segment travel times.  Con-Index construction (§3.2.2) is its caller
in ``src/``: each entry is one expansion, with the slot's *maximum* speeds
for the Far list (the paper's Near list is not built).  (The
exhaustive-search baseline does not come through here: it walks the
physical network breadth-first and verifies every segment it meets.)

The expansion starts "after" a given segment: the start segment itself is at
time 0 (the traveller is already on it), and a successor is reached after
traversing it.

The search itself is :func:`repro.network.csr.budgeted_expansion`, the
one expansion the residual-carry top-up also runs; a fixed travel-time
model is its one-window case.  This module is the arrival-map result
shape.  With non-negative costs the result is identical to the
classic Dijkstra (kept as ``time_bounded_expansion_reference`` under
``tests/reference/`` for the equivalence tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.network.csr import budgeted_expansion
from repro.network.model import RoadNetwork

#: Travel-time model: seconds to traverse a segment, or ``None``/``inf`` for
#: an impassable segment in this time slot.  The vectorized fast path
#: accepts a per-CSR-row ``float64`` cost array instead of a callable.
TravelTimeFn = Callable[[int], float]


@dataclass
class ExpansionResult:
    """Arrival times of a time-bounded expansion.

    Attributes:
        arrival: segment id -> earliest arrival time (seconds from start);
            includes the start segment at 0.0.  Its keys are the *cover*:
            every segment reachable within the budget.
    """

    arrival: dict[int, float] = field(default_factory=dict)

    @property
    def cover(self) -> set[int]:
        return set(self.arrival)


def _cost_vector(csr, travel_time) -> np.ndarray:
    """A per-row cost array from either a callable or a ready-made vector."""
    if isinstance(travel_time, np.ndarray):
        return travel_time
    cost = np.empty(csr.n, dtype=np.float64)
    for row, segment_id in enumerate(csr.ids.tolist()):
        value = travel_time(segment_id)
        cost[row] = float("inf") if value is None else value
    return cost


def time_bounded_expansion(
    network: RoadNetwork,
    start_segment: int,
    budget_s: float,
    travel_time: TravelTimeFn | np.ndarray,
    reverse: bool = False,
    cost_list: Callable[[], list[float]] | None = None,
) -> ExpansionResult:
    """Expand from ``start_segment`` for at most ``budget_s`` seconds.

    A successor segment ``r'`` of ``r`` is reached at
    ``arrival(r) + travel_time(r')`` — the cost of traversing ``r'`` itself —
    and belongs to the cover if that time is within budget.  This matches
    how the connection tables record "the nearest (farthest) road segments
    that could be arrived at within the given time slot".

    Args:
        network: road network.
        start_segment: segment the traveller starts on (arrival time 0).
        budget_s: time budget in seconds (>= 0).
        travel_time: seconds to traverse a given segment id (``inf`` or
            ``None`` marks a segment impassable), or a precomputed per-row
            ``float64`` cost vector over ``network.csr()`` rows — the fast
            path Con-Index construction uses.
        reverse: expand backwards over predecessors, yielding the set of
            segments *from which* the start segment can be reached within
            the budget (used by reverse reachability queries).
        cost_list: optional supplier of a Python list mirroring the cost
            vector (Con-Index construction hands over its cached one);
            called only if the expansion starts on the scalar path, which
            then skips the per-call ``tolist``.

    Returns:
        The arrival times as an :class:`ExpansionResult`.
    """
    if budget_s < 0:
        raise ValueError(f"budget must be >= 0, got {budget_s}")
    csr = network.csr()
    cost = _cost_vector(csr, travel_time)
    best, dist = budgeted_expansion(
        csr,
        [csr.row_of(start_segment)],
        budget_s,
        float("inf"),
        lambda phase: cost,
        reverse,
        None if cost_list is None else lambda phase: cost_list(),
    )
    if dist is None:
        # The expansion finished on the scalar path — one Con-Index entry
        # (a single Δt slot of travel) almost always does — so the result
        # is built in pure Python too: the numpy envelope would cost more
        # than the search.
        if csr.identity_ids:
            return ExpansionResult(best)
        ids = csr.ids
        return ExpansionResult({int(ids[row]): t for row, t in best.items()})
    rows = np.flatnonzero(np.isfinite(dist))
    return ExpansionResult(dict(zip(csr.ids_of(rows).tolist(), dist[rows].tolist())))
