"""The Spatio-Temporal Index (§3.2.1).

Three components, exactly as Fig. 3.2 draws them:

* **Temporal index** — the day's Δt slots.  The paper's B-tree over them
  reduces to arithmetic, as every slot starts at exactly ``k·Δt``
  (:mod:`repro.core.slots`), so no tree is built;
* **Spatial index** — the (static) re-segmented road network's polyline
  edges as arrays (:class:`~repro.network.locator.SegmentLocator`), shared
  by every temporal leaf; its one query is Fig. 3.4's location → ``r0``,
  answered by one exact vector pass, so no tree is built;
* **Time lists** — for each (road segment, time slot), a disk-resident list
  of per-date ``(trajectory ID, visit second)`` pairs for the trajectories
  that traversed the segment in that slot.  The two levels of temporal
  information (time-of-day slot and *date*) are what make Prob-reachable
  computation cheap: one record read yields every day's trajectory IDs for
  a segment-slot, and Eq. 3.1 only needs set intersections from there.
  The per-visit seconds additionally give windows sub-slot precision, so a
  query window that starts or ends mid-slot filters the boundary slots
  exactly instead of rounding out to whole slots.  A record keeps uint16
  words column-major — ``[head | num_dates | dates | counts | ids | second
  offsets]``, two per value in a block ``head`` flags — so every header sits
  where the length puts it and a wave of records decodes in one vector pass.

Records lie on disk **road-major**: by road (a segment and its twin, ranked
by the smaller id), then slot, then carriageway, so the two records Eq. 3.1
reads together for a road's slot share a page run.  The order is a writer's
choice only: the directory keeps ``(segment, slot)`` keys and explicit
pointers, so a store written in any record order reads the same.

Time-list payloads live on the :class:`~repro.storage.disk.SimulatedDisk`;
every access is charged through a buffer pool, which is the cost the query
algorithms compete on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.core import slots
from repro.core.directory import TimeListDirectory, _firsts, _ramp
from repro.network.locator import SegmentLocator
from repro.network.model import RoadNetwork
from repro.spatial.geometry import Point
from repro.storage.disk import SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer
from repro.storage.serialization import SerializationError, encode_append_delta
from repro.trajectory.model import SECONDS_PER_DAY
from repro.trajectory.store import TrajectoryDatabase


#: Bit position of the date in a packed visit key: ``(date << 32) | id``.
#: Trajectory ids are stored as uint32 so they fit the low half exactly;
#: dates must stay below 2**31 so the packed key fits int64.  Both write
#: paths enforce the two bounds (:func:`_check_visits`).
KEY_DATE_SHIFT = 32
KEY_ID_MASK = (1 << KEY_DATE_SHIFT) - 1

_EMPTY_KEYS = np.empty(0, dtype=np.int64)


def _check_visits(trajectory_ids, dates, counts, times) -> list[tuple[int, int]]:
    """Raise ``ValueError`` for a trajectory a time list cannot hold.

    The one gate in front of :meth:`STIndex.build` and
    :meth:`STIndex.append_trajectories`, called before either writes a
    page: an id outside ``[0, 2**32)`` would not fit a wide record block, a
    date outside ``[0, 2**31)`` would overflow the int64 key of every
    later read, and a NaN or infinite visit time has no slot.  Returns the
    ``(min, max)`` of the ids and of the dates (``(0, 0)`` when empty).
    """
    ranges = [(int(v.min()), int(v.max())) if v.size else (0, 0) for v in (trajectory_ids, dates)]
    for name, (lo, hi), bits in zip(("trajectory id", "date"), ranges, (32, 31)):
        if lo < 0 or hi >= 1 << bits:
            raise ValueError(f"{name} outside [0, 2**{bits}) of a time list")
    finite = np.isfinite(times)
    if not finite.all():
        visit = int(np.argmin(finite))
        owner = int(np.searchsorted(np.cumsum(counts), visit, side="right"))
        raise ValueError(
            f"trajectory {trajectory_ids[owner]} has a non-finite visit time "
            f"{float(times[visit])}"
        )
    return ranges


@dataclass(frozen=True)
class ColumnarTimeList:
    """Decoded time-list records as flat visit columns.

    Instead of a ``date -> [(id, second)]`` dict of tuple lists, the
    records' visits are two slice-aligned arrays — the layout the Eq. 3.1
    probability kernel consumes without any per-tuple Python work.

    Attributes:
        keys: ``int64`` packed ``(date << 32) | trajectory_id`` per visit,
            record after record, each in stored (date-major, then
            id/second) order.
        offsets: visit seconds minus their slot's start, aligned with ``keys``.
        record_ends: ``int64`` end of each record's visits in ``keys``.
    """

    keys: np.ndarray = field(default_factory=lambda: _EMPTY_KEYS)
    offsets: np.ndarray = field(default_factory=lambda: np.empty(0, dtype="<u2"))
    record_ends: np.ndarray = field(default_factory=lambda: _EMPTY_KEYS)

    @property
    def num_visits(self) -> int:
        return int(self.keys.size)

    def per_date(self, slot_start: int) -> dict[int, list[tuple[int, int]]]:
        """The visits as a fresh ``date -> [(id, slot_start + offset)]`` dict.

        Visits keep their stored order; a date without visits (which no
        writer emits) is absent.
        """
        per_date: dict[int, list[tuple[int, int]]] = {}
        for key, offset in zip(self.keys.tolist(), self.offsets.tolist()):
            per_date.setdefault(key >> KEY_DATE_SHIFT, []).append(
                (key & KEY_ID_MASK, slot_start + offset)
            )
        return per_date


#: A record's blocks (num_dates, dates, counts, ids, offsets): ``k`` is wide if head bit ``k`` is.
_BLOCKS = 5
_NARROW_MAX = 0xFFFF


def _block(words: np.ndarray, at: np.ndarray, width, lengths: np.ndarray) -> np.ndarray:
    """A block of every record: ``lengths[i]`` values of record ``i``, low
    halves at ``at``; where ``width`` is 2 the high halves follow them."""
    values = words[at]
    if isinstance(width, np.ndarray):  # else 1: no record holds the block wide
        to_high = (lengths * (width - 1)).repeat(lengths)  # as _put places them
        values = values | np.where(to_high > 0, words[at + to_high].astype(np.uint32) << 16, 0)
    return values


def _put(stream: np.ndarray, at: np.ndarray, values: np.ndarray, width, lengths) -> None:
    """Write one block of every record, as :func:`_block` reads it."""
    if not isinstance(width, int) or width > 1:  # high halves first: a narrow one lands on its low
        stream[at + (lengths * (width - 1)).repeat(lengths)] = values >> 16
    stream[at] = values  # the low halves (a uint16 store truncates) overwrite those stand-ins


def decode_time_list_columns(payload: bytes, lengths=None) -> ColumnarTimeList:
    """Decode time-list records packed back to back, in one vector pass.

    The one reader of the record layout (store format 4): ``<u2`` words
    ``[head | num_dates | dates | counts | ids | second offsets]``, dates
    ascending, ``counts[j]`` visits for ``dates[j]``, visit ``k``'s id and
    offset at index ``k`` of their blocks; a block ``head`` flags wide holds
    its values' low halves, then their high halves.  ``lengths`` are the
    records' byte lengths (one record when omitted).  Offsets come back as
    stored: the caller knows each record's slot from the probe that found
    it.  Every header sits where the lengths, flags and ``num_dates`` put
    it, and all are checked before anything is sized by them.
    """
    sizes = np.asarray([len(payload)] if lengths is None else lengths, dtype=np.int64)
    if len(payload) % 2 or np.count_nonzero(sizes & 1):
        raise SerializationError("time list payload not uint16-aligned")
    if int(sizes.sum()) != len(payload):
        raise SerializationError("time list lengths do not cover the payload")
    words = np.frombuffer(payload, dtype="<u2")
    sizes = sizes >> 1  # not in place: ``lengths`` may be the caller's array
    if np.count_nonzero(sizes < 2):
        raise SerializationError("truncated time list header")
    ends = sizes.cumsum()
    starts = ends - sizes
    head = words[starts]
    widths: list = [1] * _BLOCKS  # words per value, per record where any differ
    if np.count_nonzero(head):
        flagged = int(np.bitwise_or.reduce(head))
        if flagged >> _BLOCKS:
            raise SerializationError("time list head has unknown width flags")
        widths = [1 + (head >> bit & 1) if flagged >> bit & 1 else 1 for bit in range(_BLOCKS)]
        if np.count_nonzero(sizes < 1 + widths[0]):
            raise SerializationError("truncated time list header")
    nd_width, date_width, count_width, id_width, second_width = widths
    num_dates = _block(words[1:], starts, nd_width, np.ones_like(sizes)).astype(np.int64)
    date_words = num_dates * (date_width + count_width)
    visit_words = sizes - (1 + nd_width) - date_words
    num_visits, rest = np.divmod(visit_words, id_width + second_width)
    if np.count_nonzero(visit_words < 0) or np.count_nonzero(rest):
        raise SerializationError("time list header does not fit its length")
    record_ends = num_visits.cumsum()
    at = _ramp(starts + (1 + nd_width), num_dates)
    dates = _block(words, at, date_width, num_dates)
    at += (num_dates * date_width).repeat(num_dates)
    counts = _block(words, at, count_width, num_dates).astype(np.int64)
    if np.count_nonzero(np.concatenate(([0], counts.cumsum()))[num_dates.cumsum()] != record_ends):
        raise SerializationError("time list counts do not match its length")
    at = _ramp(ends - visit_words, num_visits)
    keys = (dates.astype(np.int64) << KEY_DATE_SHIFT).repeat(counts)
    keys |= _block(words, at, id_width, num_visits)
    at += (num_visits * id_width).repeat(num_visits)
    return ColumnarTimeList(keys, _block(words, at, second_width, num_visits), record_ends)


def _visit_columns(source) -> tuple[np.ndarray, ...]:
    """``(ids, dates, visit counts, segments, times)`` of a write's input.

    ``source`` is a database (its trajectories with visits, from
    ``iter_compact``) or a list of matched trajectories (all of them, ids
    and dates kept as given for the range check).  One row per trajectory,
    then the visit columns concatenated — built once per call.
    """
    if isinstance(source, list):
        visits = [visit for trajectory in source for visit in trajectory.visits]
        return (
            np.array([trajectory.trajectory_id for trajectory in source]),
            np.array([trajectory.date for trajectory in source]),
            np.array([len(trajectory.visits) for trajectory in source], dtype=np.int64),
            np.fromiter((visit.segment_id for visit in visits), np.int64, len(visits)),
            np.fromiter((visit.time_s for visit in visits), np.float64, len(visits)),
        )
    compact = [c for c in source.iter_compact() if len(c[2])]
    if not compact:
        return (_EMPTY_KEYS,) * 4 + (np.empty(0),)
    return (
        np.fromiter((c[0] for c in compact), np.int64, len(compact)),
        np.fromiter((c[1] for c in compact), np.int64, len(compact)),
        np.fromiter((len(c[2]) for c in compact), np.int64, len(compact)),
        np.concatenate([c[2] for c in compact]),
        np.concatenate([c[3] for c in compact]),
    )


def _run_lengths(starts: np.ndarray, total: int, dtype=np.int64) -> np.ndarray:
    """Lengths of the runs that start at ``starts`` and end at ``total``."""
    lengths = np.empty(starts.size, dtype)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1], casting="unsafe")
    lengths[-1] = total - starts[-1]
    return lengths


def _append(buffer: np.ndarray, used: int, values: np.ndarray) -> np.ndarray:
    """``buffer`` with ``values`` after its first ``used`` columns, doubled
    (or more) when full; an empty buffer adopts ``values`` uncopied."""
    if not used:
        return values
    end = used + values.shape[-1]
    if end > buffer.shape[-1]:
        grown = np.empty((*buffer.shape[:-1], max(end, 2 * buffer.shape[-1])), buffer.dtype)
        grown[..., :used] = buffer[..., :used]
        buffer = grown
    buffer[..., used:end] = values
    return buffer


def _road_table(network: RoadNetwork, num_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`STIndex._road_major`'s code ``road * 2 * num_slots + carriageway``
    per segment id up to the network's largest (ids it lacks: their own roads),
    and the segment of each ``2 * road + carriageway`` (``-1`` for none)."""
    csr = network.csr()
    rows, twin = np.arange(csr.n), csr.twin_row
    smaller = np.where((twin >= 0) & (twin[twin] == rows), np.minimum(rows, twin), rows)
    leads = smaller == rows  # one row per road, in id order
    road = (np.cumsum(leads) - 1)[smaller]
    segment_of = np.full(2 * int(np.count_nonzero(leads)), -1, dtype=np.int64)
    segment_of[2 * road + ~leads] = csr.ids
    codes = (np.arange(csr.ids.max(initial=0) + 1) + segment_of.size // 2) * (2 * num_slots)
    codes[csr.ids] = road * (2 * num_slots) + ~leads
    return codes, segment_of


class _PlanGathers:
    """One window plan's gathered segments as columns, the unit of the
    window-gather memo.  ``entry_of`` maps a segment to its entry ``i``:
    ``key_len[i]`` keys from ``key_at[i]`` of ``keys``, ``records[i]``
    records, ``page_len[i]`` page ids from ``page_at[i]`` of ``pages``."""

    def __init__(self) -> None:
        self.entry_of: dict[int, int] = {}
        self.entries = self.num_keys = self.num_pages = 0
        self.meta = np.empty((5, 0), dtype=np.int64)
        self.keys, self.pages = _EMPTY_KEYS, _EMPTY_KEYS

    def add(self, segment_ids: np.ndarray, keys, key_len, records, pages, page_len) -> None:
        """One entry per id of ``segment_ids``, in order."""
        key_at = self.num_keys + np.cumsum(key_len) - key_len
        page_at = self.num_pages + np.cumsum(page_len) - page_len
        rows = np.stack((key_at, key_len, records, page_at, page_len))
        self.meta = _append(self.meta, self.entries, rows)
        self.keys = _append(self.keys, self.num_keys, keys)
        self.pages = _append(self.pages, self.num_pages, pages)
        first, self.entries = self.entries, self.entries + rows.shape[1]
        self.entry_of.update(zip(segment_ids.tolist(), range(first, self.entries)))
        self.num_keys += keys.size
        self.num_pages += pages.size

    def columns(self, entries: list[int]) -> tuple[np.ndarray, ...]:
        """``(keys, key_len, records, pages, page_len)`` of ``entries``: views
        when they are one run in the order they were added."""
        first, end = entries[0], entries[0] + len(entries)
        if entries == list(range(first, end)):
            key_at, key_len, records, page_at, page_len = self.meta[:, first:end]
            keys = self.keys[key_at[0] : key_at[-1] + key_len[-1]]
            pages = self.pages[page_at[0] : page_at[-1] + page_len[-1]]
        else:
            key_at, key_len, records, page_at, page_len = self.meta[:, entries]
            keys, pages = self.keys[_ramp(key_at, key_len)], self.pages[_ramp(page_at, page_len)]
        return keys, key_len, records, pages, page_len


@dataclass
class STIndexStats:
    """Construction statistics, for documentation and sanity tests."""

    num_slots: int = 0
    num_entries: int = 0
    disk_pages: int = 0


class STIndex:
    """The ST-Index over a road network and a matched-trajectory database.

    Args:
        network: re-segmented road network.
        delta_t_s: slot width Δt in seconds (the index granularity of
            Table 4.2, there 1/5/10/20 minutes).
        disk: simulated disk to hold time-list payloads (a fresh private
            disk is created when omitted).
        buffer_pool_pages: LRU page cache capacity for reads.
        record_cache_size: window-gather memo capacity in (segment, plan)
            entries, held as whole plans, a plan gathered once counting one
            (0 disables).  The memo skips only probe, decode and filter work
            — it hands back the page ids a miss would, and the caller charges
            those either way, keeping the I/O accounting identical.
    """

    def __init__(
        self,
        network: RoadNetwork,
        delta_t_s: int,
        disk: SimulatedDisk | None = None,
        buffer_pool_pages: int = 512,
        record_cache_size: int = 4096,
    ) -> None:
        self.network = network
        self.delta_t_s = slots.check_delta_t(delta_t_s)
        self.num_slots = slots.slots_per_day(self.delta_t_s)
        self.disk = disk if disk is not None else SimulatedDisk()
        self._store = PageStore(self.disk)
        self.pool = BufferPool(self.disk, capacity=buffer_pool_pages)
        # Spatial index: the polyline edges as arrays.
        self.locator = SegmentLocator(network)
        # Time-list directory: (segment, slot) -> chain of record
        # pointers.  The bulk build writes one record per entry; appending
        # later days adds records to the chain (merged at read time), so
        # new data never forces an index rebuild.
        self.directory = TimeListDirectory(self.num_slots)
        # Record order: per segment id its road-major code, per road and
        # carriageway its segment (see _road_major).
        self._roads = _road_table(network, self.num_slots)
        self._built = False
        self.record_cache_size = record_cache_size
        # Window-gather memo: an LRU of plans (``None`` after a first gather, then
        # their segments as columns), ``record_cache_size`` entries in all; cleared by appends.
        self._window_gathers: OrderedDict[tuple, _PlanGathers | None] = OrderedDict()
        self._gathered_entries = 0
        self.stats = STIndexStats(num_slots=self.num_slots)

    # -- construction ----------------------------------------------------------

    @classmethod
    def restore(
        cls,
        network: RoadNetwork,
        delta_t_s: int,
        disk: SimulatedDisk,
        directory: TimeListDirectory,
        buffer_pool_pages: int,
    ) -> "STIndex":
        """Rebuild a built index from persisted state (no re-indexing).

        ``disk`` carries the time-list pages (a store opened by
        :func:`~repro.io.persist.open_store`) and ``directory`` the
        validated extent pointers into them
        (:meth:`TimeListDirectory.from_columns` at this Δt's slots per
        day); the index adopts it, so the caller must not keep mutating it.  Appends keep working: the
        restored store opens a fresh tail page after the persisted extents.
        """
        index = cls(network, delta_t_s, disk=disk, buffer_pool_pages=buffer_pool_pages)
        index.directory = directory
        index._built = True
        index.stats.num_entries = len(directory)
        index.stats.disk_pages = disk.num_pages
        return index

    def build(self, database: TrajectoryDatabase) -> None:
        """Bulk-build the time lists from a matched-trajectory database.

        Array-at-a-time (:meth:`_encode_time_lists` over one value sort of
        packed visit keys): every (segment, slot) record lands through
        :meth:`PageStore.append_many` — the same pages, pointers and
        ``page_writes`` as appending each record in road-major order (road,
        slot, carriageway; see :meth:`_road_major`) — and the directory
        adopts the pointers sorted by ``(segment, slot)``.  A trajectory
        that :func:`_check_visits` refuses raises before any page is written.
        """
        if self._built:
            raise RuntimeError("ST-Index already built")
        keys, stream, lengths = self._encode_time_lists(database)
        columns = self._store.append_many(stream, lengths)
        del stream
        order = keys.argsort(kind="stable")  # runs of ascending keys: a few merges
        self.directory = TimeListDirectory(
            self.num_slots, keys[order], np.column_stack([column[order] for column in columns])
        )
        # Group commit: the partial last page flushes once here.
        self._store.flush()
        self._built = True
        self.stats.num_entries = len(self.directory)
        self.stats.disk_pages = self.disk.num_pages

    def _sorted_visits(self, source) -> list[np.ndarray] | None:
        """``source``'s distinct visits in (group, date, id, second) order:
        ``[keys, runs, visits, run_dates, run_counts, ids, offsets]`` (per
        group its ``segment * num_slots + slot`` key and numbers of runs and
        visits, per (group, date) run its date and visits, per visit its id
        and second offset into its slot; ``uint32`` from ``run_dates`` on),
        or ``None`` without visits.

        A group is a (segment, slot) numbered road-major,
        :meth:`_road_major`'s code plus ``2 * slot``, with times clamped
        into the day like :meth:`slot_of`; a repeated visit counts once.  One value
        sort of a ``uint64`` per visit built in place in the groups column,
        each field but the offset shifted down by its minimum and as wide
        as its range's ``bit_length``; only fields wider than 64 bits in
        all take a two-key ``np.lexsort``.  Every column is released once consumed.
        """
        ids, dates, counts, groups, seconds = _visit_columns(source)
        (id_lo, id_hi), (date_lo, date_hi) = _check_visits(ids, dates, counts, seconds)
        if not seconds.size:
            return None
        np.clip(seconds, 0, SECONDS_PER_DAY - 1, out=seconds)
        seconds = seconds.astype(np.int64)
        groups = groups.astype(np.int64, copy=False)
        self._road_major(groups)
        groups += (seconds // self.delta_t_s) << 1
        seconds %= self.delta_t_s  # the offset into its slot, as records store it
        group_lo, group_hi = int(groups.min()), int(groups.max())
        if group_lo < -(1 << 31) or group_hi >= 1 << 31:
            raise ValueError("segment id x slots per day overflows the packed build key")
        spans = (int(seconds.max()), id_hi - id_lo, date_hi - date_lo)
        second_bits, id_bits, date_bits = (span.bit_length() for span in spans)
        if second_bits + id_bits + date_bits + (group_hi - group_lo).bit_length() <= 64:
            # One key, group | date | id | second from the high bits down.
            groups -= group_lo
            key = groups.view(np.uint64)
            key <<= date_bits + id_bits + second_bits
            per_trajectory = (dates - date_lo).astype(np.uint64) << id_bits + second_bits
            per_trajectory |= (ids - id_lo).astype(np.uint64) << second_bits
            key |= np.repeat(per_trajectory, counts)
            key |= seconds.view(np.uint64)
            del groups, seconds
            key.sort()
            # Drop repeated visits (adjacent after the sort): set semantics.
            fresh = _firsts(key)
            if not fresh.all():
                key = key[fresh]
            head, head_shift = key, id_bits + second_bits
        else:
            # Two keys, (group, date) and (id, second), the latter unsigned
            # so a uint32 id fits its high half; fields keep their values.
            head = (groups << KEY_DATE_SHIFT) | np.repeat(dates, counts)
            key = np.repeat(ids.astype(np.uint64) << KEY_DATE_SHIFT, counts)
            key |= seconds.view(np.uint64)
            del groups, seconds
            order = np.lexsort((key, head))
            head, key = head[order], key[order]
            fresh = _firsts(head)
            fresh[1:] |= key[1:] != key[:-1]
            head, key = head[fresh], key[fresh]
            group_lo = date_lo = id_lo = head_shift = 0
            second_bits = id_bits = date_bits = KEY_DATE_SHIFT
        # A run is one (group, date), its head the key above the id and the
        # second; runs of one group are adjacent.
        firsts = _firsts(head >> head_shift)
        run_heads = head[firsts] >> head_shift
        del head
        run_counts = _run_lengths(np.flatnonzero(firsts), key.size, np.uint32)
        del firsts
        first_runs = np.flatnonzero(_firsts(run_heads >> date_bits))
        groups = (run_heads[first_runs] >> date_bits).astype(np.int64) + group_lo
        run_heads &= (1 << date_bits) - 1
        run_dates = run_heads.astype(np.uint32)
        del run_heads
        run_dates += date_lo
        ids = np.empty(key.size, dtype=np.uint32)
        np.right_shift(key, second_bits, out=ids, casting="unsafe")
        ids &= (1 << id_bits) - 1
        ids += id_lo
        seconds = np.empty(key.size, dtype=np.uint32)
        np.bitwise_and(key, (1 << second_bits) - 1, out=seconds, casting="unsafe")
        del key
        visits = np.add.reduceat(run_counts, first_runs, dtype=np.int64)
        runs = _run_lengths(first_runs, run_dates.size)
        return [self._entry_keys(groups), runs, visits, run_dates, run_counts, ids, seconds]

    def _road_major(self, segments: np.ndarray) -> None:
        """Renumber segment ids in place as ``road * 2 * num_slots +
        carriageway``: plus ``2 * slot``, a group that sorts records by
        road, then slot, then carriageway.

        A road is a segment and its twin, ranked by the smaller id, which is
        carriageway 0.  An id the network lacks is a road of its own, in id
        order after the network's roads (before them if negative).
        """
        codes, segment_of = self._roads
        lacking = None
        if segments.min() < 0 or segments.max() >= codes.size:
            lacking = segments >= codes.size
            lacking |= segments < 0
            ids = segments[lacking]
        np.take(codes, segments, out=segments, mode="clip")
        if lacking is not None:
            ids[ids >= 0] += segment_of.size // 2
            ids *= 2 * self.num_slots
            segments[lacking] = ids

    def _entry_keys(self, groups: np.ndarray) -> np.ndarray:
        """The ``segment * num_slots + slot`` key of each :meth:`_road_major` group."""
        _, segment_of = self._roads
        road, rest = np.divmod(groups, 2 * self.num_slots)
        slot, carriageway = np.divmod(rest, 2)
        segments = np.where(road < 0, road, road - segment_of.size // 2)
        known = (road >= 0) & (segments < 0)
        segments[known] = segment_of[2 * road[known] + carriageway[known]]
        return segments * self.num_slots + slot

    def _encode_time_lists(self, source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (segment, slot) time list of ``source``, encoded in bulk.

        The one writer of the record layout :func:`decode_time_list_columns`
        reads.  Returns the records' ``segment * num_slots + slot`` keys,
        the records back to back in road-major order as one ``<u2`` word
        stream, and each record's byte length.
        """
        columns = self._sorted_visits(source)
        if columns is None:
            return _EMPTY_KEYS, np.empty(0, dtype="<u2"), _EMPTY_KEYS
        groups, runs, visits = columns[:3]
        # Record layout [head | num_dates | dates | counts | ids | offsets],
        # each block at its words per value (see _block), all by index
        # arithmetic; each column is released once its words are in.
        counts = (np.ones_like(runs), runs, runs, visits, visits)
        widths = [
            1 if int(column.max()) <= _NARROW_MAX else 2 if int(column.min()) > _NARROW_MAX
            else 1 + (np.maximum.reduceat(column, np.cumsum(n) - n) > _NARROW_MAX)
            for n, column in zip(counts, [runs, *columns[3:]])
        ]
        nd_width, date_width, count_width, id_width, second_width = widths
        ids_at = 1 + nd_width + runs * (date_width + count_width)
        record_words = ids_at + visits * (id_width + second_width)
        starts = np.cumsum(record_words) - record_words
        ids_at += starts
        stream = np.empty(int(record_words.sum()), dtype="<u2")
        stream[starts] = sum((width - 1) << bit for bit, width in enumerate(widths))
        _put(stream, starts + 1, runs, nd_width, counts[0])
        blocks = ((runs, starts + (1 + nd_width), date_width, count_width),
                  (visits, ids_at, id_width, second_width))
        for n, first, width, next_width in blocks:  # two blocks of n values per record
            at = _ramp(first, n)
            _put(stream, at, columns.pop(3), width, n)
            at += (n * width).repeat(n)
            _put(stream, at, columns.pop(3), next_width, n)
            del at
        return groups, stream, 2 * record_words

    def append_trajectories(self, trajectories) -> int:
        """Incrementally index additional matched trajectories.

        New days of data arrive continuously in a deployed system; instead
        of rebuilding, each affected (segment, slot) entry gains one more
        record in its chain, merged with the existing ones at read time.
        The records are encoded and ordered like :meth:`build`'s and land
        through one :meth:`PageStore.append_many`.  Returns the number of
        entries touched.  A trajectory that :func:`_check_visits` refuses raises
        ``ValueError`` before any page or journal record is written.

        Args:
            trajectories: iterable of
                :class:`~repro.trajectory.model.MatchedTrajectory`.
        """
        if not self._built:
            raise RuntimeError("build the ST-Index before appending")
        keys, stream, lengths = self._encode_time_lists(list(trajectories))
        delta = np.column_stack(
            (keys // self.num_slots, keys % self.num_slots,
             *self._store.append_many(stream, lengths))
        )
        self.directory.extend(
            delta, self.disk.num_pages, self.disk.page_size, "appended record"
        )
        self._store.flush()
        # Durability barrier: on a durable backend this journals every
        # page the append touched plus the directory delta, so the new
        # visits survive a crash without a snapshot rewrite.  On the
        # in-RAM backend it is a no-op.
        self.disk.commit(meta=encode_append_delta(self.delta_t_s, delta))
        # (Tail-page cache coherence is handled by the disk's write-through
        # invalidation of attached pools.)  The window-gather memo is keyed
        # by segment, not pointer, so grown chains must invalidate it.
        self._window_gathers.clear()
        self._gathered_entries = 0
        self.stats.num_entries = len(self.directory)
        self.stats.disk_pages = self.disk.num_pages
        return len(delta)

    def committed_directory(self) -> TimeListDirectory:
        """The directory, every pointer of it on committed pages.

        What a save or a shard export reads: the store's tail is flushed
        first (the group commit), so the disk holds every byte the
        pointers name.
        """
        self._store.flush()
        return self.directory

    # -- temporal lookups ---------------------------------------------------------

    def slot_of(self, time_s: float) -> int:
        """The slot containing ``time_s`` (clamped into the day)."""
        return slots.slot_of(time_s, self.delta_t_s)

    # -- spatial lookups -------------------------------------------------------------

    def find_start_segment(self, location: Point) -> int:
        """Map a query location ``s`` to its road segment ``r0`` (Fig. 3.4).

        The nearest segment by exact point-to-polyline distance, ties to
        the smallest segment id — a pure function of the geometry, so a
        worker's replica resolves what the dispatcher's routing resolved.
        A location with a NaN or infinite coordinate raises ``ValueError``.
        """
        return self.locator.nearest(location)

    # -- time-list reads ----------------------------------------------------------------

    def time_entries(self, segment_id: int, slot: int) -> dict[int, list[tuple[int, int]]]:
        """Read a (segment, slot) time list: ``date -> (id, second) visits``,
        ascending.  Charged through the buffer pool; an absent entry (no
        trajectory ever hit the segment in the slot) is free, as the
        in-memory directory already proves absence.  The caller owns the
        returned dict and its lists."""
        if not 0 <= slot < self.num_slots:
            return {}
        pointers = self.directory.probe((segment_id,), (slot,))[1].tolist()
        payloads = [self._store.read(RecordPointer(*p), pool=self.pool) for p in pointers]
        decoded = decode_time_list_columns(b"".join(payloads), list(map(len, payloads)))
        # Set-merge: a visit present in both the bulk record and an appended
        # record (same id, same second) counts once.
        per_date = decoded.per_date(slot * self.delta_t_s)
        return {date: sorted(set(visits)) for date, visits in per_date.items()}

    def window_plan(
        self, start_s: float, end_s: float
    ) -> tuple[tuple[float, float, int, int], ...]:
        """A window resolved to ``(lo, hi, first_slot, last_slot)`` parts.

        The plan (:func:`repro.core.slots.window_plan`) is segment-free, so
        an estimator resolves it once and every gather replays it; it is
        half of every window-gather memo key, hence one small tuple per part.
        """
        return slots.window_plan(start_s, end_s, self.delta_t_s)

    # The caller charges the returned page ids: the search's single
    # BufferPool.get_pages in ColumnarEq31Estimator.probabilities.
    # repro-lint: charged
    def gather_window_columns(
        self,
        segment_ids,
        plan: tuple[tuple[float, float, int, int], ...],
    ) -> tuple[np.ndarray, ...]:
        """Uncharged window gather for a wave of segments, as columns
        ``(keys, key_len, records, pages, page_len)`` — the gather behind
        every Eq. 3.1 evaluation.  Per requested segment, in order: its
        packed visit keys inside the plan's window, its time-list records
        and the ``int64`` page ids they span in the scalar read order (plan
        slots, then chain order); keys and pages back to back, cut by the
        lengths.  An unknown or unvisited segment is an empty entry.  The
        arrays may be views of the memo: never mutate them.

        The caller charges the page ids of the segments it evaluates, in
        evaluation order, through one
        :meth:`~repro.storage.pagestore.BufferPool.get_pages` call.  A
        segment the plan's memo holds costs a lookup; the misses of one call
        cost one directory probe, one extent read, one vector decode and one
        offsets mask (bounds shifted into each slot), appended to the memo as
        columns once the plan is gathered a second time (most plans, a cold
        send's, are gathered once).
        """
        ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
        if not self.record_cache_size or not ids.size:
            return self._gather_misses(ids, plan)
        memo = self._window_gathers.pop(plan, False)
        if memo is False:
            # A plan's first gather is served from the misses and the plan only
            # remembered, as one entry: the memo starts at its second.
            self._hold(plan, None, 1)
            return self._gather_misses(ids, plan)
        before, memo = 1 if memo is None else memo.entries, memo or _PlanGathers()
        held = memo.entries
        entries = list(map(memo.entry_of.get, ids.tolist(), repeat(-1)))
        gathered = None
        if -1 in entries:
            found = np.array(entries)
            misses = ids[found < 0]
            gathered = self._gather_misses(misses, plan)
            memo.add(misses, *gathered)
            found[found < 0] = np.arange(held, memo.entries)
            entries = found.tolist() if misses.size < ids.size else None
        self._hold(plan, memo, memo.entries - before)
        return gathered if entries is None else memo.columns(entries)

    def _hold(self, plan, memo: _PlanGathers | None, grown: int) -> None:
        """Hold ``plan`` as the most recently used, ``grown`` entries more; whole
        plans then leave, least recently used first, until the memo fits its cap
        (a plan above it on its own is served and then dropped)."""
        self._window_gathers[plan] = memo
        self._gathered_entries += grown
        while self._gathered_entries > self.record_cache_size:
            memo = self._window_gathers.popitem(last=False)[1]
            self._gathered_entries -= 1 if memo is None else memo.entries

    def _gather_misses(self, segment_ids: np.ndarray, plan) -> tuple[np.ndarray, ...]:
        """:meth:`gather_window_columns`' columns for segments no memo holds."""
        # Per plan step (one slot of one window part): its slot and the
        # bounds of its part as offsets into the slot, so a slot wholly
        # inside the part keeps every offset.
        width = self.delta_t_s
        steps = [
            (slot, lo - slot * width, hi - slot * width)
            for lo, hi, first_slot, last_slot in plan
            for slot in range(first_slot, last_slot + 1)
        ]
        pairs, rows = self.directory.probe(segment_ids, [slot for slot, _, _ in steps])
        miss_of, step_of = np.divmod(pairs, len(steps))
        first_pages, num_pages, offsets, lengths = rows.T
        keys, ends = _EMPTY_KEYS, np.zeros(1, dtype=np.int64)
        if pairs.size:
            # A record on the dirty tail page flushes it first, as a read would.
            self._store.ensure_committed(rows)
            # Uncharged: the caller charges these pages (see above).
            # repro-lint: disable=RL002
            payload = self.disk.extent_bytes(first_pages, offsets, lengths)
            decoded = decode_time_list_columns(payload, lengths)
            keys = decoded.keys
            ends = np.concatenate(([0], decoded.record_ends))
            if any(lo > 0 or hi < width for _, lo, hi in steps):
                # One offsets mask over the wave.
                _, lows, highs = np.array(steps).T
                sizes = ends[1:] - ends[:-1]
                keep = decoded.offsets >= lows[step_of].repeat(sizes)
                keep &= decoded.offsets < highs[step_of].repeat(sizes)
                keys = keys[keep]
                ends = np.concatenate(([0], keep.cumsum()))[ends]
        # Records are grouped by segment, in segment order.
        records = np.bincount(miss_of, minlength=segment_ids.size)
        key_len = np.diff(ends[np.concatenate(([0], records.cumsum()))])
        page_len = np.bincount(miss_of, num_pages, segment_ids.size).astype(np.int64)
        return keys, key_len, records, _ramp(first_pages, num_pages), page_len

    def time_list(self, segment_id: int, slot: int) -> dict[int, set[int]]:
        """A (segment, slot) time list as ``date -> trajectory ids``."""
        return {
            date: {trajectory_id for trajectory_id, _ in visits}
            for date, visits in self.time_entries(segment_id, slot).items()
        }
