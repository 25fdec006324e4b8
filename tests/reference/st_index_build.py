"""The record-at-a-time ``STIndex`` writers: oracles for the vector ones.

This is the build body the index shipped with before it went
array-at-a-time — one ``np.unique``, ``sorted(set(zip(...)))``,
``encode_time_list`` and ``PageStore.append`` per (segment, slot) group —
kept so ``tests/test_bulk_build.py`` can require the bulk build to leave
byte-identical pages, pointers, counters and tail state.  The changes
from that body are the lower clamp on visit times (it clamped only the
upper end), matching ``STIndex.slot_of`` and ``append_trajectories``, and
the record layout: ``encode_time_list`` is the scalar spec of store
format 4, so each record is encoded with its slot's start; and the record
order, road-major (:func:`road_order`) instead of by segment.
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from repro.core.st_index import STIndex
from repro.storage.serialization import SerializationError, encode_append_delta
from repro.trajectory.model import SECONDS_PER_DAY
from repro.trajectory.store import TrajectoryDatabase


def encode_time_list(per_date: dict[int, list[tuple[int, int]]], slot_start: int = 0) -> bytes:
    """Serialize ``date -> [(trajectory id, visit second)]`` for one entry.

    The scalar encoder of the record layout (store format 4): little-endian
    uint16 words ``[head | num_dates | dates | counts | ids | second
    offsets]`` — dates ascending, then each date's visit count, then every
    visit's id and every visit's ``second - slot_start``, date-major and
    sorted within a date.  A block holding a value above 65,535 is wide:
    bit ``k`` of ``head`` is set for block ``k`` and the block takes each
    value's low 16 bits, then each value's high 16 bits.
    """
    dates = sorted(per_date)
    visits = [visit for date in dates for visit in sorted(per_date[date])]
    blocks = [
        [len(dates)],
        dates,
        [len(per_date[date]) for date in dates],
        [trajectory_id for trajectory_id, _ in visits],
        [second - slot_start for _, second in visits],
    ]
    head, words = 0, []
    for bit, block in enumerate(blocks):
        if any(value > 0xFFFF for value in block):
            head |= 1 << bit
            words += [value & 0xFFFF for value in block] + [value >> 16 for value in block]
        else:
            words += block
    return struct.pack(f"<{1 + len(words)}H", head, *words)


def decode_time_list(payload: bytes, slot_start: int = 0) -> dict[int, list[tuple[int, int]]]:
    """The scalar decoder of :func:`encode_time_list`'s layout, one word at a
    time with tuple builds — the plain baseline the vector decoder is
    checked against.  A date without visits is kept, with an empty list."""
    if len(payload) % 2 or not payload:
        raise SerializationError("time list payload not uint16-aligned")
    values = struct.unpack(f"<{len(payload) // 2}H", payload)
    head, position = values[0], 1

    def block(bit: int, size: int) -> list[int]:
        nonlocal position
        wide = head >> bit & 1
        if position + size * (1 + wide) > len(values):
            raise SerializationError("truncated time list")
        low = values[position:position + size]
        high = values[position + size:position + 2 * size] if wide else [0] * size
        position += size * (1 + wide)
        return [lo | hi << 16 for lo, hi in zip(low, high)]

    if head >> 5:
        raise SerializationError("time list head has unknown width flags")
    (num_dates,) = block(0, 1)
    dates, counts = block(1, num_dates), block(2, num_dates)
    ids, seconds = block(3, sum(counts)), block(4, sum(counts))
    if position != len(values):
        raise SerializationError("time list counts do not match its length")
    per_date, visit = {}, 0
    for date, count in zip(dates, counts):
        per_date[date] = [
            (ids[k], slot_start + seconds[k]) for k in range(visit, visit + count)
        ]
        visit += count
    return per_date


def road_order(network) -> Callable[[int], tuple[int, int]]:
    """``segment id -> (road, carriageway)``, the leading keys of the order
    records are written in (then slot, then carriageway).

    A road is a segment and its twin (when each names the other), numbered
    by rank of the smaller id, which is carriageway 0.  An id the network
    lacks is a road of its own: numbered after the network's roads by id,
    or by the id itself when negative.
    """

    def smaller(segment_id: int) -> int:
        twin = network.segment(segment_id).twin_id
        if twin is None or not network.has_segment(twin):
            return segment_id
        if network.segment(twin).twin_id != segment_id:
            return segment_id
        return min(segment_id, twin)

    roads = sorted({smaller(segment_id) for segment_id in network.segment_ids()})
    rank = {road: number for number, road in enumerate(roads)}

    def order(segment_id: int) -> tuple[int, int]:
        if not network.has_segment(segment_id):
            return (segment_id if segment_id < 0 else len(roads) + segment_id), 0
        road = smaller(segment_id)
        return rank[road], int(segment_id != road)

    return order


def entry_keys(index: STIndex) -> list[tuple[int, int]]:
    """The index's ``(segment, slot)`` entries, ascending."""
    columns = index.directory.columns()
    return sorted(set(zip(columns["dir_segment"].tolist(), columns["dir_slot"].tolist())))


def scalar_build(index: STIndex, database: TrajectoryDatabase) -> None:
    """Build ``index`` from ``database`` one (segment, slot) record at a time."""
    if index._built:
        raise RuntimeError("ST-Index already built")
    seg_parts, slot_parts, date_parts = [], [], []
    tid_parts, time_parts = [], []
    for trajectory_id, date, segments, times in database.iter_compact():
        n = len(segments)
        if n == 0:
            continue
        seconds = np.clip(times, 0, SECONDS_PER_DAY - 1).astype(np.int64)
        seg_parts.append(segments.astype(np.int64))
        slot_parts.append(seconds // index.delta_t_s)
        date_parts.append(np.full(n, date, dtype=np.int64))
        tid_parts.append(np.full(n, trajectory_id, dtype=np.int64))
        time_parts.append(seconds)
    if seg_parts:
        segments = np.concatenate(seg_parts)
        slots = np.concatenate(slot_parts)
        dates = np.concatenate(date_parts)
        tids = np.concatenate(tid_parts)
        seconds = np.concatenate(time_parts)
        order_of = road_order(index.network)
        road, carriageway = np.array([order_of(segment) for segment in segments.tolist()]).T
        order = np.lexsort((seconds, tids, dates, carriageway, slots, road))
        segments, slots = segments[order], slots[order]
        dates, tids = dates[order], tids[order]
        seconds = seconds[order]
        group_keys = (road[order] * index.num_slots + slots) * 2 + carriageway[order]
        _, starts = np.unique(group_keys, return_index=True)
        boundaries = np.append(starts, len(group_keys))
        rows = []
        for i in range(len(starts)):
            lo, hi = boundaries[i], boundaries[i + 1]
            segment_id = int(segments[lo])
            slot = int(slots[lo])
            per_date: dict[int, list[tuple[int, int]]] = {}
            group_dates = dates[lo:hi]
            group_tids = tids[lo:hi]
            group_seconds = seconds[lo:hi]
            date_starts = np.unique(group_dates, return_index=True)[1]
            date_bounds = np.append(date_starts, hi - lo)
            for j in range(len(date_starts)):
                a, b = date_bounds[j], date_bounds[j + 1]
                visits = sorted(
                    set(
                        zip(
                            group_tids[a:b].tolist(),
                            group_seconds[a:b].tolist(),
                        )
                    )
                )
                per_date[int(group_dates[a])] = visits
            payload = encode_time_list(per_date, slot * index.delta_t_s)
            rows.append((segment_id, slot, *index._store.append(payload)))
        index.directory.extend(
            rows, index.disk.num_pages, index.disk.page_size, "scalar build"
        )
        # Group commit: the tail page flushes once here.
        index._store.flush()
    index._built = True
    index.stats.num_entries = len(index.directory)
    index.stats.disk_pages = index.disk.num_pages


def scalar_append(index: STIndex, trajectories) -> int:
    """Append ``trajectories`` one (segment, slot) record at a time.

    The ``append_trajectories`` body from before it shared the bulk
    build's encoder: a per-visit dict of sets, then one
    ``encode_time_list`` and ``PageStore.append`` per entry in (segment,
    slot) order, now road-major — kept so ``tests/test_bulk_build.py``
    can require the vector append to leave byte-identical pages, pointers,
    counters and tail state.
    """
    pending: dict[tuple[int, int], dict[int, set[tuple[int, int]]]] = {}
    for trajectory in trajectories:
        for visit in trajectory.visits:
            second = int(min(max(0.0, visit.time_s), SECONDS_PER_DAY - 1))
            per_date = pending.setdefault((visit.segment_id, index.slot_of(visit.time_s)), {})
            per_date.setdefault(trajectory.date, set()).add((trajectory.trajectory_id, second))
    order = road_order(index.network)
    delta = []
    for key in sorted(pending, key=lambda key: (order(key[0])[0], key[1], order(key[0])[1])):
        per_date = {d: sorted(v) for d, v in pending[key].items()}
        payload = encode_time_list(per_date, key[1] * index.delta_t_s)
        delta.append((*key, *index._store.append(payload)))
    index.directory.extend(delta, index.disk.num_pages, index.disk.page_size, "appended record")
    index._store.flush()
    index.disk.commit(meta=encode_append_delta(index.delta_t_s, delta))
    index.stats.num_entries = len(index.directory)
    index.stats.disk_pages = index.disk.num_pages
    return len(pending)
