"""Time-bounded network expansion (Papadias et al. [21] style).

Budgeted shortest-arrival expansion over the segment graph with
per-segment travel times.  Used by:

* Con-Index construction (§3.2.2): expanded once with per-slot *maximum*
  speeds for the Far list and once with *minimum* speeds for the Near list;
* the exhaustive-search baseline, which expands the physical network from
  the query location.

The expansion starts "after" a given segment: the start segment itself is at
time 0 (the traveller is already on it), and a successor is reached after
traversing it.

Since the CSR kernel refactor the heavy lifting happens in
:mod:`repro.network.csr`: the whole frontier is relaxed per round over
numpy arrays instead of popping one ``heapq`` entry per segment.  With
non-negative costs the relaxation fixpoint is unique, so the result is
identical to the classic Dijkstra (kept as
``time_bounded_expansion_reference`` under ``tests/reference/`` for the
equivalence tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.network.csr import (
    SCALAR_PATH_MAX_N,
    _scalar_dijkstra,
    _scatter_labels,
    _unexpanded_rows,
    cover_boundary_mask,
    expand_fixed,
    relax_fixpoint,
)
from repro.network.model import RoadNetwork

#: Travel-time model: seconds to traverse a segment, or ``None``/``inf`` for
#: an impassable segment in this time slot.  The vectorized fast path
#: accepts a per-CSR-row ``float64`` cost array instead of a callable.
TravelTimeFn = Callable[[int], float]


@dataclass
class ExpansionResult:
    """Cover and frontier of a time-bounded expansion.

    Attributes:
        arrival: segment id -> earliest arrival time (seconds from start);
            includes the start segment at 0.0.  This is the *cover*: every
            segment reachable within the budget.
        frontier: segments in the cover having at least one successor that
            is outside the cover (or no successors at all) — the outer shell
            that Fig. 3.3 draws as the Near/Far boundary.
    """

    arrival: dict[int, float] = field(default_factory=dict)
    frontier: set[int] = field(default_factory=set)

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


class _LazyCostList:
    """List-like view over a ``TravelTimeFn`` evaluated per visited row.

    Keeps the classic complexity of the callable interface: the scalar
    Dijkstra only evaluates costs for rows it actually reaches (memoized),
    instead of eagerly materialising an O(n) vector per expansion.
    """

    __slots__ = ("_fn", "_ids", "_values")

    def __init__(self, fn, ids: np.ndarray) -> None:
        self._fn = fn
        self._ids = ids
        self._values: dict[int, float] = {}

    def __getitem__(self, row: int) -> float:
        value = self._values.get(row)
        if value is None:
            value = self._fn(int(self._ids[row]))
            value = float("inf") if value is None else float(value)
            self._values[row] = value
        return value


def time_bounded_expansion(
    network: RoadNetwork,
    start_segment: int,
    budget_s: float,
    travel_time: TravelTimeFn | np.ndarray,
    reverse: bool = False,
    cost_list: list[float] | None = None,
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
        cost_list: optional pre-converted Python list mirroring the cost
            vector (Con-Index construction passes its cached one so the
            scalar fast path skips the per-call ``tolist``).

    Returns:
        The cover/frontier as an :class:`ExpansionResult`.
    """
    if budget_s < 0:
        raise ValueError(f"budget must be >= 0, got {budget_s}")
    csr = network.csr()
    is_vector = isinstance(travel_time, np.ndarray)
    start_row = csr.row_of(start_segment)
    if csr.n <= SCALAR_PATH_MAX_N:
        # Small-cover fast path: classic heap Dijkstra, and — when it
        # finishes without escalating — a pure-Python result build.  One
        # Con-Index entry (a single Δt slot of travel) almost always
        # lands here; the numpy envelope would cost more than the search.
        # A callable cost model is evaluated lazily (visited rows only),
        # preserving the classic complexity of that interface.
        adjacency = csr.adjacency_lists(reverse)
        if cost_list is not None:
            costs = cost_list
        elif is_vector:
            costs = travel_time.tolist()
        else:
            costs = _LazyCostList(travel_time, csr.ids)
        best, heap = _scalar_dijkstra(adjacency, costs, [start_row], budget_s)
        if not heap:
            identity = csr.identity_ids
            ids = csr.ids
            result = ExpansionResult()
            result.arrival = (
                dict(best)
                if identity
                else {int(ids[row]): t for row, t in best.items()}
            )
            for row in best:
                neighbors = adjacency[row]
                if not neighbors or any(nb not in best for nb in neighbors):
                    result.frontier.add(row if identity else int(ids[row]))
            return result
        # Escalation: the cover outgrew the scalar path; only now pay for
        # the full cost vector the kernel needs.
        cost = _cost_vector(csr, travel_time)
        dist = _scatter_labels(csr.n, best)
        relax_fixpoint(
            csr, dist, _unexpanded_rows(best, heap), cost, budget_s, reverse
        )
    else:
        cost = _cost_vector(csr, travel_time)
        dist = expand_fixed(
            csr, np.array([start_row], dtype=np.int64), budget_s, cost, reverse
        )
    cover_mask = np.isfinite(dist)
    boundary_mask = cover_boundary_mask(csr, cover_mask, reverse)
    result = ExpansionResult()
    rows = np.flatnonzero(cover_mask)
    result.arrival = dict(
        zip(csr.ids_of(rows).tolist(), dist[rows].tolist())
    )
    result.frontier = csr.mask_to_id_set(boundary_mask)
    return result
