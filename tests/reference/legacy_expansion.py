"""Reference (pre-kernel) expansion implementations.

These are the classic Python set/``heapq`` implementations that the CSR
kernels in :mod:`repro.network.csr` replaced.  They are kept because the
kernel-equivalence tests (``tests/test_expansion_kernel.py``) prove the
vectorized expansion layer produces *identical* covers, boundaries and
seed assignments on randomized networks, and need a trustworthy baseline
to diff against.

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


def decode_time_list_reference(payload: bytes) -> dict[int, list[tuple[int, int]]]:
    """The pre-vectorization time-list decoder (per-element tuple builds).

    Decoding happens on every charged time-list read in the TBS/ES hot
    path, so this is part of the honest pre-PR end-to-end baseline.
    """
    import struct

    from repro.storage.serialization import SerializationError

    if len(payload) % 4 != 0:
        raise SerializationError("time list payload not uint32-aligned")
    values = struct.unpack(f"<{len(payload) // 4}I", payload)
    num_dates = values[0]
    per_date: dict[int, list[tuple[int, int]]] = {}
    offset = 1
    for _ in range(num_dates):
        if offset + 2 > len(values):
            raise SerializationError("truncated time list header")
        date, count = values[offset], values[offset + 1]
        offset += 2
        if offset + 2 * count > len(values):
            raise SerializationError("truncated time list ids")
        per_date[date] = [
            (values[offset + 2 * i], values[offset + 2 * i + 1])
            for i in range(count)
        ]
        offset += 2 * count
    if offset != len(values):
        raise SerializationError("trailing values in time list payload")
    return per_date


def travel_time_reference(con_index, kind: str, slot: int):
    """The pre-kernel per-slot speed closure (per-call bounds probing).

    This is what Con-Index construction and the residual carry expanded
    with before the cached ``travel_time_vector`` arrays existed: every
    traversal-cost evaluation probes the database's hourly speed-bound
    dictionaries.  Kept as the honest baseline for the construction-side
    benchmark rows.
    """
    mid_time = con_index._slot_mid_time(slot)
    bounds_of = con_index.database.observed_speed_bounds
    segment = con_index.network.segment
    pick_max = kind.startswith("far")

    def travel_time(segment_id: int) -> float:
        bounds = bounds_of(segment_id, mid_time)
        if bounds is None:
            return float("inf")
        speed = bounds[1] if pick_max else bounds[0]
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
    cover = set(arrival)
    for segment in cover:
        neighbors = step_of(segment)
        if not neighbors or any(s not in cover for s in neighbors):
            result.frontier.add(segment)
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
            fn = travel_time_reference(con_index, kind, slot)
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


def region_boundary_reference(
    network: RoadNetwork, cover: set[int], reverse: bool = False
) -> set[int]:
    step_of = network.predecessors if reverse else network.successors
    boundary: set[int] = set()
    for segment_id in cover:
        neighbors = step_of(segment_id)
        if not neighbors or any(s not in cover for s in neighbors):
            boundary.add(segment_id)
    if not boundary and cover:
        return set(cover)
    return boundary


def sqmb_bounding_region_reference(
    con_index,
    start_segment: int,
    start_time_s: float,
    duration_s: float,
    kind: str = "far",
) -> BoundingRegion:
    """Algorithm 1 with per-step Python set unions (classic implementation)."""
    delta_t = con_index.delta_t_s
    num_slots = con_index.num_slots
    start_slot = con_index.slot_of(start_time_s)
    steps = max(1, int(duration_s // delta_t))
    cover: set[int] = {start_segment}
    twin = con_index.network.segment(start_segment).twin_id
    if twin is not None and con_index.network.has_segment(twin):
        cover.add(twin)
    seeds = sorted(cover)
    for step in range(steps):
        slot = (start_slot + step) % num_slots
        additions: set[int] = set()
        for segment_id in cover:
            entry = con_index.entry(segment_id, slot, kind)
            additions |= entry.cover
        cover |= additions
    if kind == "far":
        cover |= slot_aware_expansion_reference(
            con_index, seeds, start_time_s, steps * delta_t, kind
        )
    close_under_twins_reference(con_index.network, cover)
    return BoundingRegion(
        cover=cover,
        boundary=region_boundary_reference(con_index.network, cover),
        seed_of={segment_id: start_segment for segment_id in cover},
    )


def mqmb_bounding_region_reference(
    con_index,
    start_segments: list[int],
    start_time_s: float,
    duration_s: float,
    kind: str = "far",
) -> BoundingRegion:
    """Algorithm 3 with Python-set unions and per-element nearest-seed."""
    if not start_segments:
        raise ValueError("m-query needs at least one start segment")
    network = con_index.network
    seeds = list(dict.fromkeys(start_segments))
    delta_t = con_index.delta_t_s
    num_slots = con_index.num_slots
    start_slot = con_index.slot_of(start_time_s)
    steps = max(1, int(duration_s // delta_t))
    midpoints = {seed: network.segment(seed).midpoint for seed in seeds}

    def nearest_seed(segment_id: int) -> int:
        mid = network.segment(segment_id).midpoint
        return min(seeds, key=lambda seed: midpoints[seed].distance_to(mid))

    seed_of: dict[int, int] = {seed: seed for seed in seeds}
    if len(seeds) > 1:
        for seed in seeds:
            seed_of[seed] = nearest_seed(seed)
    cover: set[int] = set(seeds)
    for seed in seeds:
        twin = network.segment(seed).twin_id
        if twin is not None and network.has_segment(twin):
            cover.add(twin)
            seed_of.setdefault(twin, seed_of[seed])
    expansion_seeds = sorted(cover)
    for step in range(steps):
        slot = (start_slot + step) % num_slots
        additions: set[int] = set()
        for segment_id in cover:
            entry = con_index.entry(segment_id, slot, kind)
            additions |= entry.cover
        additions -= cover
        for segment_id in additions:
            seed_of[segment_id] = (
                nearest_seed(segment_id) if len(seeds) > 1 else seeds[0]
            )
        cover |= additions
    if kind == "far":
        carried = (
            slot_aware_expansion_reference(
                con_index, expansion_seeds, start_time_s, steps * delta_t, kind
            )
            - cover
        )
        for segment_id in carried:
            seed_of[segment_id] = (
                nearest_seed(segment_id) if len(seeds) > 1 else seeds[0]
            )
        cover |= carried
    close_under_twins_reference(network, cover)
    for segment_id in list(cover):
        if segment_id not in seed_of:
            twin = network.segment(segment_id).twin_id
            seed_of[segment_id] = seed_of.get(twin, seeds[0])
    return BoundingRegion(
        cover=cover,
        boundary=region_boundary_reference(network, cover),
        seed_of=seed_of,
    )


def reverse_bounding_region_reference(
    con_index,
    target_segment: int,
    start_time_s: float,
    duration_s: float,
    kind: str = "far",
) -> BoundingRegion:
    """Algorithm 1 run backwards (classic implementation)."""
    if kind not in ("far", "near"):
        raise ValueError(f"kind must be 'far' or 'near', got {kind!r}")
    reverse_kind = f"{kind}_rev"
    network = con_index.network
    delta_t = con_index.delta_t_s
    num_slots = con_index.num_slots
    start_slot = con_index.slot_of(start_time_s)
    steps = max(1, int(duration_s // delta_t))
    cover: set[int] = {target_segment}
    twin = network.segment(target_segment).twin_id
    if twin is not None and network.has_segment(twin):
        cover.add(twin)
    seeds = sorted(cover)
    for step in range(steps):
        slot = (start_slot + step) % num_slots
        additions: set[int] = set()
        for segment_id in cover:
            entry = con_index.entry(segment_id, slot, reverse_kind)
            additions |= entry.cover
        cover |= additions
    if kind == "far":
        cover |= slot_aware_expansion_reference(
            con_index, seeds, start_time_s, steps * delta_t, reverse_kind
        )
    close_under_twins_reference(network, cover)
    return BoundingRegion(
        cover=cover,
        boundary=region_boundary_reference(network, cover, reverse=True),
        seed_of={segment_id: target_segment for segment_id in cover},
    )
