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
  exactly instead of rounding out to whole slots.  A record keeps its words
  column-major — ``[num_dates | dates | counts | ids | seconds]`` — so
  every header sits where the record's length puts it and a whole wave of
  records decodes in one vector pass.

Time-list payloads live on the :class:`~repro.storage.disk.SimulatedDisk`;
every access is charged through a buffer pool, which is the cost the query
algorithms compete on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core import slots
from repro.core.directory import TimeListDirectory, _ramp
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


def _check_visits(trajectory_ids, dates, counts, times) -> None:
    """Raise ``ValueError`` for a trajectory a time list cannot hold.

    The one gate in front of :meth:`STIndex.build` and
    :meth:`STIndex.append_trajectories`, called before either writes a
    page: an id outside ``[0, 2**32)`` would wrap in the uint32 record, a
    date outside ``[0, 2**31)`` would overflow the int64 key of every
    later read, and a NaN or infinite visit time has no slot.
    """
    for name, values, bits in (
        ("trajectory id", trajectory_ids, KEY_DATE_SHIFT),
        ("date", dates, KEY_DATE_SHIFT - 1),
    ):
        if values.size and (values.min() < 0 or values.max() >= 1 << bits):
            raise ValueError(f"{name} outside [0, 2**{bits}) of a time list")
    finite = np.isfinite(times)
    if not finite.all():
        visit = int(np.argmin(finite))
        owner = int(np.searchsorted(np.cumsum(counts), visit, side="right"))
        raise ValueError(
            f"trajectory {trajectory_ids[owner]} has a non-finite visit time "
            f"{float(times[visit])}"
        )


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
        seconds: ``uint32`` visit seconds, aligned with ``keys``.
        record_ends: ``int64`` end of each record's visits in ``keys``.

    The window-gather memo shares views of ``keys`` between queries —
    never mutate the arrays.
    """

    keys: np.ndarray = field(default_factory=lambda: _EMPTY_KEYS)
    seconds: np.ndarray = field(default_factory=lambda: np.empty(0, dtype="<u4"))
    record_ends: np.ndarray = field(default_factory=lambda: _EMPTY_KEYS)

    @property
    def num_visits(self) -> int:
        return int(self.keys.size)

    def per_date(self) -> dict[int, list[tuple[int, int]]]:
        """The visits as a fresh ``date -> [(id, second)]`` dict.

        Visits keep their stored order; a date without visits (which no
        writer emits) is absent.
        """
        per_date: dict[int, list[tuple[int, int]]] = {}
        for key, second in zip(self.keys.tolist(), self.seconds.tolist()):
            per_date.setdefault(key >> KEY_DATE_SHIFT, []).append(
                (key & KEY_ID_MASK, second)
            )
        return per_date


def decode_time_list_columns(payload: bytes, lengths=None) -> ColumnarTimeList:
    """Decode time-list records packed back to back, in one vector pass.

    The one reader of the record layout (store format 2): uint32 words
    ``[num_dates | dates | counts | ids | seconds]``, dates ascending,
    ``counts[j]`` visits for ``dates[j]``, and visit ``k``'s id and second
    at the same index of their blocks.  ``lengths`` are the records' byte
    lengths (the whole payload is one record when omitted).  Every header
    sits at a position the lengths and ``num_dates`` fix, so all records
    decode with a handful of array ops; ``num_dates`` and the counts are
    checked against the lengths before anything is sized by them.
    """
    sizes = np.asarray([len(payload)] if lengths is None else lengths, dtype=np.int64)
    if len(payload) % 4 or (sizes & 3).any():
        raise SerializationError("time list payload not uint32-aligned")
    if int(sizes.sum()) != len(payload):
        raise SerializationError("time list lengths do not cover the payload")
    words = np.frombuffer(payload, dtype="<u4")
    sizes = sizes >> 2  # not in place: ``lengths`` may be the caller's array
    if not sizes.all():
        raise SerializationError("truncated time list header")
    starts = sizes.cumsum() - sizes
    num_dates = words[starts].astype(np.int64)
    twice_visits = sizes - 1 - 2 * num_dates
    if (twice_visits < 0).any() or (twice_visits & 1).any():
        raise SerializationError("time list header does not fit its length")
    num_visits = twice_visits >> 1
    record_ends = num_visits.cumsum()
    date_words = _ramp(starts + 1, num_dates)
    counts = words[date_words + num_dates.repeat(num_dates)].astype(np.int64)
    if (np.concatenate(([0], counts.cumsum()))[num_dates.cumsum()] != record_ends).any():
        raise SerializationError("time list counts do not match its length")
    id_words = _ramp(starts + 1 + 2 * num_dates, num_visits)
    keys = (words[date_words].astype(np.int64) << KEY_DATE_SHIFT).repeat(counts)
    keys |= words[id_words]
    id_words += num_visits.repeat(num_visits)
    return ColumnarTimeList(keys=keys, seconds=words[id_words], record_ends=record_ends)


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
        self._window_gathers: OrderedDict[
            tuple[int, tuple], tuple[np.ndarray, int, tuple[int, ...]]
        ] = OrderedDict()
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

        Array-at-a-time (:meth:`_encode_time_lists`): every (segment, slot)
        record lands through :meth:`PageStore.append_many` — the same pages,
        pointers and ``page_writes`` as appending each record in (segment,
        slot) order.  A trajectory that :func:`_check_visits` refuses raises
        before any page is written.
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

    def _encode_time_lists(self, source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (segment, slot) time list of ``source``, encoded in bulk.

        The one writer of the record layout :func:`decode_time_list_columns`
        reads.  The input columns (:func:`_visit_columns`) are built here so
        this frame holds the only references: each temporary is released
        as soon as the next stage has consumed it, as at a few million
        visits they are tens of megabytes each.  Visit times are clamped
        into the day like :meth:`slot_of`; a repeated visit counts once.

        Returns the packed ``segment * num_slots + slot`` keys in ascending
        order, the records back to back as one ``<u4`` word stream, and
        each record's byte length.
        """
        ids, dates, counts, groups, seconds = _visit_columns(source)
        _check_visits(ids, dates, counts, seconds)
        if not seconds.size:
            return _EMPTY_KEYS, np.empty(0, dtype="<u4"), _EMPTY_KEYS
        np.clip(seconds, 0, SECONDS_PER_DAY - 1, out=seconds)
        seconds = seconds.astype(np.int64)
        groups = groups.astype(np.int64, copy=False)
        groups *= self.num_slots
        groups += seconds // self.delta_t_s
        if groups.min() < -(1 << 31) or groups.max() >= 1 << 31:
            raise ValueError(
                "segment id x slots per day overflows the packed build key"
            )
        # Two packed sort keys: (group, date) and (trajectory id, second),
        # the latter unsigned so a uint32 id fits its high half.
        major = (groups << KEY_DATE_SHIFT) | np.repeat(dates, counts)
        del groups
        minor = np.repeat(ids.astype(np.uint64) << np.uint64(KEY_DATE_SHIFT), counts)
        minor |= seconds.view(np.uint64)
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
        runs = np.diff(np.append(first_runs, run_starts.size))
        first_visits = run_starts[first_runs]
        visits = np.diff(np.append(first_visits, num_visits))
        # Record layout [num_dates | dates | counts | ids | seconds]: every
        # word lands by index arithmetic on its group's run and visit counts.
        record_words = 1 + 2 * (runs + visits)
        starts = np.cumsum(record_words) - record_words
        stream = np.empty(int(record_words.sum()), dtype="<u4")
        stream[starts] = runs
        stream[_ramp(starts + 1, runs)] = run_keys & KEY_ID_MASK
        stream[_ramp(starts + 1 + runs, runs)] = np.diff(
            np.append(run_starts, num_visits)
        )
        # Little-endian halves of the minor key: (second, id) per visit.
        halves = minor.astype("<u8", copy=False).view("<u4").reshape(-1, 2)
        stream[_ramp(starts + 1 + 2 * runs, visits)] = halves[:, 1]
        stream[_ramp(starts + 1 + 2 * runs + visits, visits)] = halves[:, 0]
        del halves, minor
        return run_groups[first_runs], stream, 4 * record_words

    def append_trajectories(self, trajectories) -> int:
        """Incrementally index additional matched trajectories.

        New days of data arrive continuously in a deployed system; instead
        of rebuilding, each affected (segment, slot) entry gains one more
        record in its chain, merged with the existing ones at read time.
        The records are encoded like :meth:`build`'s and land through one
        :meth:`PageStore.append_many`.  Returns the number of entries
        touched.  A trajectory that :func:`_check_visits` refuses raises
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
        ).tolist()
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
        _, chain = self.directory.probe((segment_id,), (slot,))
        if not len(chain):
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

    def _read_record(self, pointer: np.ndarray) -> ColumnarTimeList:
        """One record read, charged through the buffer pool, and decoded."""
        return decode_time_list_columns(
            self._store.read(RecordPointer(*pointer.tolist()), pool=self.pool)
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

    # The caller charges the returned page ids: the wave's single
    # BufferPool.get_pages in ColumnarEq31Estimator.probabilities.
    # repro-lint: charged
    def gather_window_columns(
        self,
        segment_ids,
        plan: tuple[tuple[float, float, int, int], ...],
    ) -> list[tuple[np.ndarray, int, np.ndarray]]:
        """Uncharged window gather for a wave of segments.

        The gather behind every Eq. 3.1 evaluation.  Per requested segment,
        in order: its packed visit keys inside the plan's window, how many
        time-list records they came from, and the ``int64`` page ids those
        records span in the scalar read order (plan slots in window order,
        chain records in chain order) — the window-gather memo's entry.

        Nothing is charged here.  The caller charges the page ids of the
        segments it actually evaluates, in evaluation order, through one
        :meth:`~repro.storage.pagestore.BufferPool.get_pages` call, so the
        pool sees the access sequence of the per-segment loop.  A memo hit
        skips all the work below.  The misses of one call cost one
        directory probe, one extent read, one vector decode
        (:func:`decode_time_list_columns`) and one seconds mask; their
        entries are views of the wave's key and page-id arrays, cut by
        cumulative record counts.
        """
        cache_on = self.record_cache_size > 0
        results: list = []
        misses: list[tuple[int, int]] = []
        gathers = self._window_gathers
        for segment_id in segment_ids:
            entry = gathers.get((segment_id, plan)) if cache_on else None
            if entry is None:
                misses.append((len(results), segment_id))
            else:
                gathers.move_to_end((segment_id, plan))
            results.append(entry)
        if not misses:
            return results
        # Per plan step (one slot of one window part): its slot and the
        # seconds bounds of its part, unbounded where the slot lies wholly
        # inside the part.
        steps = [
            (slot, -np.inf, np.inf)
            if lo <= slot * self.delta_t_s and (slot + 1) * self.delta_t_s <= hi
            else (slot, lo, hi)
            for lo, hi, first_slot, last_slot in plan
            for slot in range(first_slot, last_slot + 1)
        ]
        pairs, rows = self.directory.probe(
            [segment_id for _, segment_id in misses], [slot for slot, _, _ in steps]
        )
        miss_of, step_of = np.divmod(pairs, len(steps))
        first_pages, num_pages, offsets, lengths = rows.T
        keys, ends = _EMPTY_KEYS, np.zeros(1, dtype=np.int64)
        if pairs.size:
            # A record on the store's dirty tail page flushes it first, as
            # a charged PageStore.read would.
            self._store.ensure_committed(rows)
            # Uncharged: the caller charges these pages, once per evaluation
            # that uses them (see above).
            # repro-lint: disable=RL002
            payload = self.disk.extent_bytes(first_pages, offsets, lengths)
            decoded = decode_time_list_columns(payload, lengths)
            keys = decoded.keys
            ends = np.concatenate(([0], decoded.record_ends))
            if any(lo > -np.inf for _, lo, _ in steps):
                # One seconds mask over the wave.
                _, lows, highs = np.array(steps).T
                sizes = ends[1:] - ends[:-1]
                keep = decoded.seconds >= lows[step_of].repeat(sizes)
                keep &= decoded.seconds < highs[step_of].repeat(sizes)
                keys = keys[keep]
                ends = np.concatenate(([0], keep.cumsum()))[ends]
        # Split per segment: records are grouped by miss, in miss order.
        records = np.bincount(miss_of, minlength=len(misses))
        record_cuts = np.concatenate(([0], records.cumsum()))
        key_cuts = ends[record_cuts].tolist()
        page_cuts = np.concatenate(([0], num_pages.cumsum()))[record_cuts].tolist()
        pages = _ramp(first_pages, num_pages)
        for i, ((position, _), count) in enumerate(zip(misses, records.tolist())):
            results[position] = (
                keys[key_cuts[i] : key_cuts[i + 1]],
                count,
                pages[page_cuts[i] : page_cuts[i + 1]],
            )
        if cache_on:
            for position, segment_id in misses:
                gathers[(segment_id, plan)] = results[position]
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
