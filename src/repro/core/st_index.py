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
  exactly instead of rounding out to whole slots.

Time-list payloads live on the :class:`~repro.storage.disk.SimulatedDisk`;
every access is charged through a buffer pool, which is the cost the query
algorithms compete on.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core import slots
from repro.core.directory import Pointer, TimeListDirectory
from repro.network.locator import SegmentLocator
from repro.network.model import RoadNetwork
from repro.spatial.geometry import Point
from repro.storage.disk import SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer
from repro.storage.serialization import SerializationError, encode_append_delta
from repro.trajectory.model import SECONDS_PER_DAY
from repro.trajectory.store import TrajectoryDatabase


def encode_time_list(per_date: dict[int, list[tuple[int, int]]]) -> bytes:
    """Serialize ``date -> [(trajectory id, visit second)]`` for one entry.

    Flat uint32 layout: ``[num_dates, (date, count, (id, second)*count)*]``.
    Visit seconds (whole seconds since midnight) give the time lists
    sub-slot precision, so query windows that start or end mid-slot can be
    filtered exactly instead of rounding out to whole slots.
    """
    values: list[int] = [len(per_date)]
    for date in sorted(per_date):
        visits = sorted(per_date[date])
        values.append(date)
        values.append(len(visits))
        for trajectory_id, second in visits:
            values.append(trajectory_id)
            values.append(second)
    return struct.pack(f"<{len(values)}I", *values)


#: Bit position of the date in a packed visit key: ``(date << 32) | id``.
#: Trajectory ids are stored as uint32 so they fit the low half exactly;
#: dates must stay below 2**31 so the packed key fits int64.  Both write
#: paths enforce the two bounds (:func:`_check_key_ranges`).
KEY_DATE_SHIFT = 32
KEY_ID_MASK = (1 << KEY_DATE_SHIFT) - 1

#: Bits of the visit second in the bulk build's ``(id << 17) | second`` sort
#: key: a second of the day is below 86,400 < 2**17.
_SECOND_BITS = 17

_EMPTY_KEYS = np.empty(0, dtype=np.int64)


def _check_key_ranges(trajectory_ids, dates) -> None:
    """Raise ``ValueError`` for an id or date a packed visit key cannot hold.

    The one gate in front of :meth:`STIndex.build` and
    :meth:`STIndex.append_trajectories`, called before either writes a
    page: an id outside ``[0, 2**32)`` would wrap in the uint32 record, a
    date outside ``[0, 2**31)`` would overflow the int64 key of every
    later read.
    """
    for name, values, bits in (
        ("trajectory id", trajectory_ids, KEY_DATE_SHIFT),
        ("date", dates, KEY_DATE_SHIFT - 1),
    ):
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() >= 1 << bits):
            raise ValueError(f"{name} outside [0, 2**{bits}) of a time list")


@dataclass(frozen=True)
class ColumnarTimeList:
    """One decoded time-list record as flat visit columns.

    Instead of a ``date -> [(id, second)]`` dict of tuple lists, the
    record's visits are two slice-aligned arrays — the layout the Eq. 3.1
    probability kernel consumes without any per-tuple Python work.

    Attributes:
        keys: ``int64`` packed ``(date << 32) | trajectory_id`` per visit,
            in stored (date-major, then id/second) order.
        seconds: ``int32`` visit seconds, aligned with ``keys``.

    The window-gather memo shares ``keys`` between queries — never mutate
    the arrays.
    """

    keys: np.ndarray = field(default_factory=lambda: _EMPTY_KEYS)
    seconds: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )

    @property
    def num_visits(self) -> int:
        return int(self.keys.size)

    def per_date(self) -> dict[int, list[tuple[int, int]]]:
        """The record as a fresh ``date -> [(id, second)]`` dict.

        Visits keep their stored order; a date without visits (which no
        writer emits) is absent.
        """
        per_date: dict[int, list[tuple[int, int]]] = {}
        for key, second in zip(self.keys.tolist(), self.seconds.tolist()):
            per_date.setdefault(key >> KEY_DATE_SHIFT, []).append(
                (key & KEY_ID_MASK, second)
            )
        return per_date


def decode_time_list_columns(payload: bytes) -> ColumnarTimeList:
    """Inverse of :func:`encode_time_list`, straight into visit columns.

    The one reader of the wire format.  Records are small (a handful of
    dates, some ten visits), so the payload is converted in one C pass
    (``frombuffer`` + ``tolist``) and walked as list slices; the columns
    are built once at the end instead of by numpy ops per date.
    """
    if len(payload) % 4 != 0:
        raise SerializationError("time list payload not uint32-aligned")
    words = np.frombuffer(payload, dtype="<u4").tolist()
    total = len(words)
    if total == 0:
        raise SerializationError("truncated time list header")
    keys: list[int] = []
    seconds: list[int] = []
    offset = 1
    for _ in range(words[0]):
        if offset + 2 > total:
            raise SerializationError("truncated time list header")
        date_bits = words[offset] << KEY_DATE_SHIFT
        end = offset + 2 + 2 * words[offset + 1]
        if end > total:
            raise SerializationError("truncated time list ids")
        keys.extend([date_bits | visit_id for visit_id in words[offset + 2:end:2]])
        seconds.extend(words[offset + 3:end:2])
        offset = end
    if offset != total:
        raise SerializationError("trailing values in time list payload")
    if not keys:
        return ColumnarTimeList()
    return ColumnarTimeList(
        keys=np.array(keys, dtype=np.int64),
        seconds=np.array(seconds, dtype=np.int32),
    )


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
            entries (0 disables).  The memo skips only decode and filter
            work — it hands back the page ids a miss would, and the caller
            charges those either way, keeping the I/O accounting identical.
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
        self._built = False
        self.record_cache_size = record_cache_size
        # Window-gather memo: (segment, plan) -> the filtered key array,
        # the record count and the page ids the gather touched.  A hit
        # returns what a miss would compute, page ids included (the caller
        # charges those through the buffer pool either way), and only
        # skips the decode/filter/concat work.  Cleared when appends extend
        # a directory chain.
        self._window_gathers: OrderedDict[  # guarded_by: _record_lock
            tuple[int, tuple], tuple[np.ndarray, int, tuple[int, ...]]
        ] = OrderedDict()
        # Bumped (under _record_lock) whenever appends grow a directory
        # chain; a gather that started before the bump must not insert
        # its pre-append entry into the memo after the clear.
        self._data_epoch = 0  # guarded_by: _record_lock
        self._record_lock = threading.Lock()
        self.stats = STIndexStats(num_slots=self.num_slots)

    # -- construction ----------------------------------------------------------

    @classmethod
    def restore(
        cls,
        network: RoadNetwork,
        delta_t_s: int,
        disk: SimulatedDisk,
        directory: TimeListDirectory,
        buffer_pool_pages: int = 512,
        record_cache_size: int = 4096,
    ) -> "STIndex":
        """Rebuild a built index from persisted state (no re-indexing).

        ``disk`` carries the time-list pages (e.g. from
        :meth:`~repro.storage.disk.SimulatedDisk.from_state`) and
        ``directory`` the validated extent pointers into them
        (:meth:`TimeListDirectory.from_columns` at this Δt's slots per
        day); the index adopts it, so the caller must not keep mutating it.  Appends keep working: the
        restored store opens a fresh tail page after the persisted extents.
        """
        index = cls(
            network,
            delta_t_s,
            disk=disk,
            buffer_pool_pages=buffer_pool_pages,
            record_cache_size=record_cache_size,
        )
        index.directory = directory
        index._built = True
        index.stats.num_entries = len(directory)
        index.stats.disk_pages = disk.num_pages
        return index

    def build(self, database: TrajectoryDatabase) -> None:
        """Bulk-build the time lists from a matched-trajectory database.

        Array-at-a-time: the compact trajectories are concatenated once,
        sorted on two packed keys, and every (segment, slot) record is
        scattered into one uint32 word stream that lands through
        :meth:`PageStore.append_many` — the same pages, pointers and
        ``page_writes`` as appending each record in (segment, slot) order.
        Visit times are clamped into the day like :meth:`slot_of`; a
        trajectory id or date a packed visit key cannot hold raises before
        any page is written.
        """
        if self._built:
            raise RuntimeError("ST-Index already built")
        keys, stream, lengths = self._encode_time_lists(database)
        columns = self._store.append_many(stream, lengths)
        del stream
        self.directory = TimeListDirectory(
            self.num_slots, keys, np.column_stack(columns)
        )
        # Group commit: the partial last page flushes once here.
        self._store.flush()
        self._built = True
        self.stats.num_entries = len(self.directory)
        self.stats.disk_pages = self.disk.num_pages

    def _encode_time_lists(
        self, database: TrajectoryDatabase
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (segment, slot) time list of ``database``, encoded in bulk.

        Returns the packed ``segment * num_slots + slot`` keys in ascending
        order, the records' :func:`encode_time_list` payloads back to back as one
        ``<u4`` word stream, and each record's byte length.  Temporaries
        are released as soon as the next stage has consumed them: at a few
        million visits they are tens of megabytes each.
        """
        compact = [c for c in database.iter_compact() if len(c[2])]
        if not compact:
            return _EMPTY_KEYS, np.empty(0, dtype="<u4"), np.empty(0, dtype=np.int64)
        counts = np.fromiter((len(c[2]) for c in compact), np.int64, len(compact))
        ids = np.fromiter((c[0] for c in compact), np.int64, len(compact))
        dates = np.fromiter((c[1] for c in compact), np.int64, len(compact))
        _check_key_ranges(ids, dates)
        seconds = np.concatenate([c[3] for c in compact])
        np.clip(seconds, 0, SECONDS_PER_DAY - 1, out=seconds)
        seconds = seconds.astype(np.int64)
        groups = np.concatenate([c[2] for c in compact]).astype(np.int64)
        del compact
        groups *= self.num_slots
        groups += seconds // self.delta_t_s
        if groups.min() < -(1 << 31) or groups.max() >= 1 << 31:
            raise ValueError(
                "segment id x slots per day overflows the packed build key"
            )
        # Two packed sort keys: (group, date) and (trajectory id, second).
        major = (groups << KEY_DATE_SHIFT) | np.repeat(dates, counts)
        del groups
        minor = np.repeat(ids << _SECOND_BITS, counts) | seconds
        del seconds
        order = np.lexsort((minor, major))
        major = major[order]
        minor = minor[order]
        del order
        # Drop repeated visits (adjacent after the sort): set semantics.
        fresh = np.empty(major.size, dtype=bool)
        fresh[0] = True
        np.not_equal(major[1:], major[:-1], out=fresh[1:])
        fresh[1:] |= minor[1:] != minor[:-1]
        if not fresh.all():
            major, minor = major[fresh], minor[fresh]
        del fresh
        # A run is one (group, date); runs of one group are adjacent.
        run_starts = np.flatnonzero(major[1:] != major[:-1]) + 1
        run_starts = np.concatenate((np.zeros(1, dtype=np.int64), run_starts))
        run_keys = major[run_starts]
        num_visits = major.size
        del major
        run_groups = run_keys >> KEY_DATE_SHIFT
        first_runs = np.flatnonzero(run_groups[1:] != run_groups[:-1]) + 1
        first_runs = np.concatenate((np.zeros(1, dtype=np.int64), first_runs))
        runs_per_group = np.diff(np.append(first_runs, run_starts.size))
        # Word layout per record: [num_dates, (date, count, (id, second)*)*].
        # A run's header sits after 2 words per earlier visit and run and
        # 1 per group header up to and including its own.
        run_words = (
            2 * (run_starts + np.arange(run_starts.size))
            + np.repeat(np.arange(1, first_runs.size + 1), runs_per_group)
        )
        group_words = run_words[first_runs] - 1
        total_words = 2 * (num_visits + run_starts.size) + first_runs.size
        stream = np.empty(total_words, dtype="<u4")
        headers = np.zeros(total_words, dtype=bool)
        for words, values in (
            (group_words, runs_per_group),
            (run_words, run_keys & KEY_ID_MASK),
            (run_words + 1, np.diff(np.append(run_starts, num_visits))),
        ):
            stream[words] = values
            headers[words] = True
        visits = np.empty((num_visits, 2), dtype="<u4")
        visits[:, 0] = minor >> _SECOND_BITS
        visits[:, 1] = minor & ((1 << _SECOND_BITS) - 1)
        del minor
        np.logical_not(headers, out=headers)
        stream[headers] = visits.reshape(-1)
        del visits, headers
        lengths = 4 * np.diff(np.append(group_words, total_words))
        return run_groups[first_runs], stream, lengths

    def append_trajectories(self, trajectories) -> int:
        """Incrementally index additional matched trajectories.

        New days of data arrive continuously in a deployed system; instead
        of rebuilding, each affected (segment, slot) entry gains one more
        record in its chain, merged with the existing ones at read time.
        Returns the number of entries touched.  A trajectory id or date a
        packed visit key cannot hold raises ``ValueError`` before any page
        or journal record is written.

        Args:
            trajectories: iterable of
                :class:`~repro.trajectory.model.MatchedTrajectory`.
        """
        if not self._built:
            raise RuntimeError("build the ST-Index before appending")
        trajectories = list(trajectories)
        _check_key_ranges(
            [trajectory.trajectory_id for trajectory in trajectories],
            [trajectory.date for trajectory in trajectories],
        )
        pending: dict[tuple[int, int], dict[int, set[tuple[int, int]]]] = {}
        for trajectory in trajectories:
            date = trajectory.date
            trajectory_id = trajectory.trajectory_id
            for visit in trajectory.visits:
                slot = self.slot_of(visit.time_s)
                second = int(min(max(0.0, visit.time_s), SECONDS_PER_DAY - 1))
                per_date = pending.setdefault((visit.segment_id, slot), {})
                per_date.setdefault(date, set()).add((trajectory_id, second))
        delta: list[tuple[int, int, int, int, int, int]] = []
        for key in sorted(pending):
            per_date = {d: sorted(visits) for d, visits in pending[key].items()}
            pointer = self._store.append(encode_time_list(per_date))
            delta.append((*key, *pointer))
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
        with self._record_lock:
            self._window_gathers.clear()
            self._data_epoch += 1
        self.stats.num_entries = len(self.directory)
        self.stats.disk_pages = self.disk.num_pages
        return len(pending)

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

    def time_entries(
        self, segment_id: int, slot: int
    ) -> dict[int, list[tuple[int, int]]]:
        """Read a (segment, slot) time list: ``date -> (id, second) visits``.

        Charged through the buffer pool; an absent entry (no trajectory ever
        hit the segment in the slot) is free, as the in-memory directory
        already proves absence.  The caller owns the returned dict and its
        lists.
        """
        if not 0 <= slot < self.num_slots:
            return {}
        chain = self.directory.probe((segment_id,), (slot,))[0]
        if not chain:
            return {}
        if len(chain) == 1:
            # Bulk-built and per-append records are internally duplicate
            # free; only cross-record merges need the dedup below.
            return self._read_record(chain[0]).per_date()
        merged: dict[int, set[tuple[int, int]]] = {}
        for pointer in chain:
            for date, visits in self._read_record(pointer).per_date().items():
                # Set-merge: a visit present in both the bulk record and an
                # appended record (same id, same second) must count once.
                merged.setdefault(date, set()).update(visits)
        return {date: sorted(visits) for date, visits in merged.items()}

    def _read_record(self, pointer: Pointer) -> ColumnarTimeList:
        """One record read, charged through the buffer pool, and decoded."""
        return decode_time_list_columns(
            self._store.read(RecordPointer(*pointer), pool=self.pool)
        )

    def window_plan(
        self, start_s: float, end_s: float
    ) -> tuple[tuple[float, float, int, int], ...]:
        """A window resolved to ``(lo, hi, first_slot, last_slot)`` parts.

        The plan (:func:`repro.core.slots.window_plan`) is segment-free, so
        an estimator resolves it once and every gather replays it; it is
        half of every window-gather memo key, hence one small tuple per part.
        """
        return slots.window_plan(start_s, end_s, self.delta_t_s)

    @staticmethod
    def _assemble_window_keys(
        steps: list[tuple[Pointer, bool, float, float]],
        columns: dict[Pointer, ColumnarTimeList],
    ) -> np.ndarray:
        """Filter and concatenate one segment's decoded window records."""
        parts: list[np.ndarray] = []
        for pointer, whole_slot, lo, hi in steps:
            record = columns[pointer]
            if record.keys.size == 0:
                continue
            if whole_slot:
                parts.append(record.keys)
                continue
            mask = (record.seconds >= lo) & (record.seconds < hi)
            if mask.any():
                parts.append(record.keys[mask])
        if not parts:
            return _EMPTY_KEYS
        if len(parts) == 1:
            # Single whole-slot records dominate; avoid copying them.
            return parts[0]
        return np.concatenate(parts)

    # The caller charges the returned page ids: the wave's single
    # BufferPool.get_pages in ColumnarEq31Estimator.probabilities.
    # repro-lint: charged
    def gather_window_columns(
        self,
        segment_ids,
        plan: tuple[tuple[float, float, int, int], ...],
    ) -> list[tuple[np.ndarray, int, tuple[int, ...]]]:
        """Uncharged window gather for a wave of segments.

        The gather behind every Eq. 3.1 evaluation.  Per requested segment,
        in order: its packed visit keys inside the plan's window, how many
        time-list records they came from, and the page ids those records
        span in the scalar read order (plan slots in window order, chain
        records in append order) — the window-gather memo's entry.

        Nothing is charged here.  The caller charges the page ids of the
        segments it actually evaluates, in evaluation order, through one
        :meth:`~repro.storage.pagestore.BufferPool.get_pages` call, so the
        pool sees the access sequence of the per-segment loop.  A memo hit
        skips the directory probe and the decode; the misses of one call
        share one directory probe and decode each record they name once.
        """
        cache_on = self.record_cache_size > 0
        results: list = []
        misses: list[tuple[int, tuple[int, tuple]]] = []
        with self._record_lock:
            epoch = self._data_epoch
            gathers = self._window_gathers
            for segment_id in segment_ids:
                key = (segment_id, plan)
                entry = gathers.get(key) if cache_on else None
                if entry is None:
                    misses.append((len(results), key))
                else:
                    gathers.move_to_end(key)
                results.append(entry)
            if not misses:
                return results
            # One directory probe resolves every miss of the wave.
            # Boundary slots are filtered by visit second.
            slot_steps = [
                (
                    slot,
                    lo <= slot * self.delta_t_s
                    and (slot + 1) * self.delta_t_s <= hi,
                    lo,
                    hi,
                )
                for lo, hi, first_slot, last_slot in plan
                for slot in range(first_slot, last_slot + 1)
            ]
            chains = iter(
                self.directory.probe(
                    [key[0] for _, key in misses],
                    [step[0] for step in slot_steps],
                )
            )
        builds = [
            (
                position,
                key,
                [
                    (pointer, whole_slot, lo, hi)
                    for _, whole_slot, lo, hi in slot_steps
                    for pointer in next(chains)
                ],
            )
            for position, key in misses
        ]
        pointers = [step[0] for _, _, steps in builds for step in steps]
        # A record on the store's dirty tail page flushes it first, as a
        # charged PageStore.read would.
        self._store.ensure_committed(pointers)
        columns: dict[Pointer, ColumnarTimeList] = {}
        for pointer in pointers:
            if pointer not in columns:
                # Uncharged decode: the caller charges these pages, once per
                # evaluation that uses them (see above).
                # repro-lint: disable=RL002
                columns[pointer] = decode_time_list_columns(
                    self.disk.extent_bytes(pointer[0], pointer[2], pointer[3])
                )
        for position, _, steps in builds:
            results[position] = (
                self._assemble_window_keys(steps, columns),
                len(steps),
                tuple(
                    page
                    for (first_page, num_pages, _, _), _, _, _ in steps
                    for page in range(first_page, first_page + num_pages)
                ),
            )
        if cache_on:
            with self._record_lock:
                # An append may have cleared the memo while this gather ran
                # outside the lock; inserting the pre-append entry would
                # resurrect stale data.
                if self._data_epoch == epoch:
                    gathers = self._window_gathers
                    for position, key, _ in builds:
                        gathers[key] = results[position]
                    while len(gathers) > self.record_cache_size:
                        gathers.popitem(last=False)
        return results

    def time_list(self, segment_id: int, slot: int) -> dict[int, set[int]]:
        """A (segment, slot) time list as ``date -> trajectory ids``."""
        return {
            date: {trajectory_id for trajectory_id, _ in visits}
            for date, visits in self.time_entries(segment_id, slot).items()
        }

    def trajectories_in_window(
        self, segment_id: int, start_s: float, end_s: float
    ) -> dict[int, set[int]]:
        """Per-date trajectory IDs passing a segment within ``[start_s, end_s)``.

        Every visit of the overlapped slots is kept by its own second, so
        the window boundaries are exact rather than rounded out to whole Δt
        slots.  A window crossing midnight is split at the day boundary
        (time-of-day is cyclic) and both parts contribute.
        """
        merged: dict[int, set[int]] = {}
        for lo, hi, first_slot, last_slot in self.window_plan(start_s, end_s):
            for slot in range(first_slot, last_slot + 1):
                for date, visits in self.time_entries(segment_id, slot).items():
                    ids = {tid for tid, second in visits if lo <= second < hi}
                    if ids:
                        merged.setdefault(date, set()).update(ids)
        return merged
