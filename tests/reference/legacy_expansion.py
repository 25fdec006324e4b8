"""Reference (pre-kernel) expansion implementations.

These are the classic Python set/``heapq`` implementations that the CSR
kernels in :mod:`repro.network.csr` replaced.  They are kept because the
kernel-equivalence tests (``tests/test_expansion_kernel.py``) prove the
vectorized expansion layer produces *identical* covers on randomized
networks, and need a trustworthy baseline to diff against.

They carry the same midnight semantics as the live code: slot progression
is *relative* (``(start_slot + step) % num_slots``), time-of-day being
cyclic — the pre-fix entry hops clamped at the last slot of the day
instead, which mixed two speed models for queries near midnight.
"""

from __future__ import annotations

import heapq

from repro.core.query import BoundingRegion
from repro.network.expansion import ExpansionResult
from repro.network.model import RoadNetwork


def travel_time_reference(con_index, slot: int):
    """The pre-kernel per-slot maximum-speed closure (per-call bounds probing).

    This is what Con-Index construction and the residual carry expanded
    with before the cached ``travel_time_vector`` arrays existed: every
    traversal-cost evaluation probes the database's hourly speed-bound
    dictionaries.  Kept as the honest baseline for the construction-side
    benchmark rows.
    """
    mid_time = con_index._slot_mid_time(slot)
    bounds_of = con_index.database.observed_speed_bounds
    segment = con_index.network.segment

    def travel_time(segment_id: int) -> float:
        bounds = bounds_of(segment_id, mid_time)
        if bounds is None:
            return float("inf")
        speed = bounds[1]
        if speed <= 0:
            return float("inf")
        return segment(segment_id).length / speed

    return travel_time


def time_bounded_expansion_reference(
    network: RoadNetwork,
    start_segment: int,
    budget_s: float,
    travel_time,
    reverse: bool = False,
) -> ExpansionResult:
    """Budgeted Dijkstra over the segment graph (classic implementation)."""
    if budget_s < 0:
        raise ValueError(f"budget must be >= 0, got {budget_s}")
    step_of = network.predecessors if reverse else network.successors
    result = ExpansionResult()
    arrival = result.arrival
    heap: list[tuple[float, int]] = [(0.0, start_segment)]
    best: dict[int, float] = {start_segment: 0.0}
    while heap:
        time_now, segment = heapq.heappop(heap)
        if time_now > best.get(segment, float("inf")):
            continue
        arrival[segment] = time_now
        for neighbor in step_of(segment):
            cost = travel_time(neighbor)
            if cost is None or cost == float("inf"):
                continue
            reach = time_now + cost
            if reach > budget_s:
                continue
            if reach < best.get(neighbor, float("inf")):
                best[neighbor] = reach
                heapq.heappush(heap, (reach, neighbor))
    return result


def slot_aware_expansion_reference(
    con_index,
    seeds: list[int],
    start_time_s: float,
    budget_s: float,
    kind: str = "far",
) -> set[int]:
    """Residual-carry Dijkstra under per-slot speeds (classic heap loop)."""
    step_of = (
        con_index.network.predecessors
        if kind.endswith("_rev")
        else con_index.network.successors
    )
    start_slot = con_index.slot_of(start_time_s)
    delta_t = con_index.delta_t_s
    num_slots = con_index.num_slots
    travel_fns: dict[int, object] = {}

    def traversal(segment_id: int, time_s: float) -> float:
        slot = (start_slot + int(time_s // delta_t)) % num_slots
        fn = travel_fns.get(slot)
        if fn is None:
            fn = travel_time_reference(con_index, slot)
            travel_fns[slot] = fn
        return fn(segment_id)

    best: dict[int, float] = {seed: 0.0 for seed in seeds}
    heap: list[tuple[float, int]] = [(0.0, seed) for seed in seeds]
    heapq.heapify(heap)
    while heap:
        time_now, segment = heapq.heappop(heap)
        if time_now > best.get(segment, float("inf")):
            continue
        for neighbor in step_of(segment):
            cost = traversal(neighbor, time_now)
            if cost == float("inf"):
                continue
            reach = time_now + cost
            if reach > budget_s:
                continue
            if reach < best.get(neighbor, float("inf")):
                best[neighbor] = reach
                heapq.heappush(heap, (reach, neighbor))
    return set(best)


def close_under_twins_reference(network: RoadNetwork, cover: set[int]) -> None:
    for segment_id in list(cover):
        twin = network.segment(segment_id).twin_id
        if twin is not None and network.has_segment(twin):
            cover.add(twin)


def bounding_region_reference(
    con_index,
    seeds: list[int],
    start_time_s: float,
    duration_s: float,
    reverse: bool = False,
) -> BoundingRegion:
    """Algorithms 1 and 3, forward or backward, with per-step Python set
    unions (classic implementation)."""
    if not seeds:
        raise ValueError("m-query needs at least one start segment")
    kind = "far_rev" if reverse else "far"
    network = con_index.network
    seeds = list(dict.fromkeys(seeds))
    delta_t = con_index.delta_t_s
    num_slots = con_index.num_slots
    start_slot = con_index.slot_of(start_time_s)
    steps = max(1, int(duration_s // delta_t))
    cover: set[int] = set(seeds)
    for seed in seeds:
        twin = network.segment(seed).twin_id
        if twin is not None and network.has_segment(twin):
            cover.add(twin)
    expansion_seeds = sorted(cover)
    for step in range(steps):
        slot = (start_slot + step) % num_slots
        additions: set[int] = set()
        for segment_id in cover:
            entry = con_index.entry(segment_id, slot, kind)
            additions.update(entry.tolist())
        cover |= additions
    cover |= slot_aware_expansion_reference(
        con_index, expansion_seeds, start_time_s, steps * delta_t, kind
    )
    close_under_twins_reference(network, cover)
    return BoundingRegion(cover=cover)
