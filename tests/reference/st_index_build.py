"""The record-at-a-time ``STIndex.build``: the oracle for the bulk build.

This is the build body the index shipped with before it went
array-at-a-time — one ``np.unique``, ``sorted(set(zip(...)))``,
``encode_time_list`` and ``PageStore.append`` per (segment, slot) group —
kept so ``tests/test_bulk_build.py`` can require the bulk build to leave
byte-identical pages, pointers, counters and tail state.  The one change
from that body is the lower clamp on visit times (it clamped only the
upper end), matching ``STIndex.slot_of`` and ``append_trajectories``.
"""

from __future__ import annotations

import numpy as np

from repro.core.st_index import STIndex, encode_time_list
from repro.trajectory.model import SECONDS_PER_DAY
from repro.trajectory.store import TrajectoryDatabase


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
        order = np.lexsort((seconds, tids, dates, slots, segments))
        segments, slots = segments[order], slots[order]
        dates, tids = dates[order], tids[order]
        seconds = seconds[order]
        group_keys = segments * index.num_slots + slots
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
            payload = encode_time_list(per_date)
            rows.append((segment_id, slot, *index._store.append(payload)))
        index.directory.extend(
            rows, index.disk.num_pages, index.disk.page_size, "scalar build"
        )
        # Group commit: the tail page flushes once here.
        index._store.flush()
    index._built = True
    index.stats.num_entries = len(index.directory)
    index.stats.disk_pages = index.disk.num_pages
