"""The Connection Index (§3.2.2).

For each road segment and Δt time slot, the Con-Index records which
segments are certainly reachable within one slot (**Near** list, built from
the *minimum* observed speeds with zeros removed) and which are at most
reachable (**Far** list, built from the *maximum* observed speeds).  Both
are produced by the modified network-expansion algorithm of [21] with
per-slot travel times derived from historical speed statistics.

Entries are materialised lazily (or eagerly via :meth:`precompute`), written
to the simulated disk, and decoded entries are cached in memory with an LRU
bound — the SQMB hot path reads the same handful of entries for every query
in a sweep, which is precisely why the paper's query processing "skip[s]
some network expansion steps" cheaply.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from repro.core.slots import check_delta_t, slot_of, slots_per_day
from repro.network.expansion import time_bounded_expansion
from repro.network.model import RoadNetwork
from repro.storage.disk import SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore, RecordPointer
from repro.storage.serialization import _decode_varint, _encode_varint
from repro.trajectory.model import SECONDS_PER_DAY
from repro.trajectory.store import TrajectoryDatabase

Kind = Literal["far", "near", "far_rev", "near_rev"]

#: Capacity of a Con-Index's decoded-entry LRU (the in-memory index cache);
#: an evicted entry is read back from its page, never recomputed.
ENTRY_CACHE_SIZE = 100_000


@dataclass(frozen=True)
class FrontierEntry:
    """One connection-table row: F(r, t) or N(r, t) of Table 2.1.

    Attributes:
        frontier: the outer shell of the one-slot expansion — the segments
            Fig. 3.3 lists as the Near/Far IDs.
        cover: every segment reachable within the slot (frontier included);
            accumulated by SQMB into the bounding-region area.
    """

    frontier: tuple[int, ...]
    cover: frozenset[int]

    def cover_ids(self) -> np.ndarray:
        """The cover as a sorted ``int64`` id array (cached per entry).

        The SQMB/MQMB step loops union entry covers into boolean row
        masks; materialising the array once per decoded entry keeps that
        union a single fancy-index store instead of a per-id set insert.
        """
        cached = getattr(self, "_cover_ids", None)
        if cached is None:
            cached = np.fromiter(
                self.cover, dtype=np.int64, count=len(self.cover)
            )
            cached.sort()
            object.__setattr__(self, "_cover_ids", cached)
        return cached


def encode_entry(entry: FrontierEntry) -> bytes:
    """Serialize an entry as two uint32 arrays."""
    frontier = sorted(entry.frontier)
    cover = sorted(entry.cover)
    values = [len(frontier), len(cover)] + frontier + cover
    return struct.pack(f"<{len(values)}I", *values)


def decode_entry(payload: bytes) -> FrontierEntry:
    """Inverse of :func:`encode_entry`."""
    count = len(payload) // 4
    values = struct.unpack(f"<{count}I", payload[: count * 4])
    n_frontier, n_cover = values[0], values[1]
    frontier = values[2 : 2 + n_frontier]
    cover = values[2 + n_frontier : 2 + n_frontier + n_cover]
    return FrontierEntry(frontier=tuple(frontier), cover=frozenset(cover))


def _encode_delta_list(values: list[int]) -> bytes:
    """Sorted ids as count-prefixed delta varints (ids cluster spatially,
    so deltas are small and mostly one byte)."""
    parts = [_encode_varint(len(values))]
    previous = 0
    for value in values:
        parts.append(_encode_varint(value - previous))
        previous = value
    return b"".join(parts)


def _decode_delta_list(payload: bytes, offset: int) -> tuple[list[int], int]:
    count, offset = _decode_varint(payload, offset)
    values: list[int] = []
    previous = 0
    for _ in range(count):
        delta, offset = _decode_varint(payload, offset)
        previous += delta
        values.append(previous)
    return values, offset


def encode_entry_compressed(entry: FrontierEntry) -> bytes:
    """Delta-varint entry codec — 2-4x smaller than the flat uint32 layout.

    §1.2 reviews index-compression work ([3, 12, 24]) motivated by exactly
    this: per-slot connection tables repeat near-identical id lists, and
    compressing them is what keeps the Con-Index "a reasonable size".
    """
    return _encode_delta_list(sorted(entry.frontier)) + _encode_delta_list(
        sorted(entry.cover)
    )


def decode_entry_compressed(payload: bytes) -> FrontierEntry:
    """Inverse of :func:`encode_entry_compressed`."""
    frontier, offset = _decode_delta_list(payload, 0)
    cover, _ = _decode_delta_list(payload, offset)
    return FrontierEntry(frontier=tuple(frontier), cover=frozenset(cover))


class ConnectionIndex:
    """Near/Far connection tables over (segment, slot) pairs.

    Args:
        network: re-segmented road network.
        database: trajectory database supplying observed speed bounds.
        delta_t_s: slot width Δt in seconds (same granularity as ST-Index).
        disk: simulated disk for entry payloads (private one when omitted).
        buffer_pool_pages: LRU page-cache capacity.
        compressed: store entries with the delta-varint codec instead of
            flat uint32 arrays (smaller records, slightly dearer decode).
    """

    def __init__(
        self,
        network: RoadNetwork,
        database: TrajectoryDatabase,
        delta_t_s: int,
        disk: SimulatedDisk | None = None,
        buffer_pool_pages: int = 512,
        compressed: bool = False,
    ) -> None:
        self.network = network
        self.database = database
        self.delta_t_s = check_delta_t(delta_t_s)
        self.num_slots = slots_per_day(self.delta_t_s)
        self.disk = disk if disk is not None else SimulatedDisk()
        self._store = PageStore(self.disk)
        self.pool = BufferPool(self.disk, capacity=buffer_pool_pages)
        self._directory: dict[tuple[str, int, int], RecordPointer] = {}
        self._decoded: OrderedDict[tuple[str, int, int], FrontierEntry] = OrderedDict()
        self.compressed = compressed
        self._encode = encode_entry_compressed if compressed else encode_entry
        self._decode = decode_entry_compressed if compressed else decode_entry
        self.bytes_stored = 0
        self._tt_vectors: dict[tuple[bool, int], np.ndarray] = {}
        self._tt_lists: dict[tuple[bool, int], list[float]] = {}
        # The CSR view the cached vectors were built for.
        self._tt_csr = None
        # Construction-side counter, for ablations.
        self.expansions = 0

    # -- slot helpers -------------------------------------------------------

    def slot_of(self, time_s: float) -> int:
        """The slot containing ``time_s``, wrapping modulo one day.

        Time-of-day is cyclic: a query hop that crosses midnight continues
        in the first slots of the (next) day, as the residual-carry top-up
        does, rather than clamping at the last slot.
        """
        return slot_of(float(time_s) % SECONDS_PER_DAY, self.delta_t_s)

    def _slot_mid_time(self, slot: int) -> float:
        return (slot % self.num_slots) * self.delta_t_s + self.delta_t_s / 2.0

    def slot_hour(self, slot: int) -> int:
        """The hour-of-day whose speed statistics govern ``slot``.

        Entries and travel-time vectors are fully determined by
        ``(segment, kind, slot_hour(slot))`` because the database's speed
        bounds are hourly — the fact the hop loops exploit to skip
        re-expanding segments across same-hour steps.
        """
        return int(self._slot_mid_time(slot) // 3600) % 24

    # -- speed models ----------------------------------------------------------

    def travel_time_vector(self, kind: Kind, slot: int) -> np.ndarray:
        """Per-CSR-row traversal seconds under the slot's min/max speeds.

        Segments with no historical observations in (or near) the slot's
        hour are impassable (``inf``): a data-driven index cannot vouch
        for roads no trajectory ever used.  Speed bounds are hourly, so
        the vector is cached per ``(far/near, hour)`` — at most 48 arrays
        serve every slot of the day — and every expansion (entry
        construction and the residual-carry top-up alike) is a pure numpy
        gather against it.
        """
        csr = self.network.csr()
        if csr is not self._tt_csr:
            # Topology changed (the network rebuilt its CSR view): cached
            # cost vectors have the old row count and must be rebuilt.
            self._tt_vectors.clear()
            self._tt_lists.clear()
            self._tt_csr = csr
        hour = self.slot_hour(slot)
        pick_max = kind.startswith("far")
        key = (pick_max, hour)
        vector = self._tt_vectors.get(key)
        if vector is None:
            bounds_of = self.database.observed_speed_bounds
            probe_time = hour * 3600.0
            speeds = np.zeros(csr.n, dtype=np.float64)
            for row, segment_id in enumerate(csr.ids.tolist()):
                bounds = bounds_of(segment_id, probe_time)
                if bounds is not None:
                    speeds[row] = bounds[1] if pick_max else bounds[0]
            vector = np.full(csr.n, float("inf"))
            positive = speeds > 0
            vector[positive] = csr.lengths[positive] / speeds[positive]
            self._tt_vectors[key] = vector
        return vector

    def travel_time_list(self, kind: Kind, slot: int) -> list[float]:
        """:meth:`travel_time_vector` as a plain Python list (cached).

        The expansion kernels' scalar fast path walks costs in a Python
        loop; handing it a ready-made list avoids a per-expansion
        ``tolist`` conversion.
        """
        # Resolving the vector first also validates the CSR view (stale
        # caches are cleared there when the topology changed).
        vector = self.travel_time_vector(kind, slot)
        key = (kind.startswith("far"), self.slot_hour(slot))
        values = self._tt_lists.get(key)
        if values is None:
            values = vector.tolist()
            self._tt_lists[key] = values
        return values

    # -- entry access -------------------------------------------------------------

    def entry(self, segment_id: int, slot: int, kind: Kind) -> FrontierEntry:
        """F(segment, slot) for kind='far', N(segment, slot) for kind='near'.

        Materialised lazily: a miss computes the entry, stores it and
        charges its write once; the decoded entry is kept in an LRU.
        """
        slot %= self.num_slots
        key = (kind, segment_id, slot)
        cached = self._decoded.get(key)
        if cached is not None:
            self._decoded.move_to_end(key)
            return cached
        pointer = self._directory.get(key)
        if pointer is None:
            entry = self._compute(segment_id, slot, kind)
            payload = self._encode(entry)
            self.bytes_stored += len(payload)
            self._directory[key] = self._store.append(payload)
            # Write through: a lazily materialised entry is durable (and
            # its page write charged) as soon as it exists, keeping the
            # query-time write accounting identical to the pre-extent
            # store.  Only the ST-Index *bulk build* group-commits.
            self._store.flush()
        else:
            entry = self._decode(self._store.read(pointer, pool=self.pool))
        self._decoded[key] = entry
        if len(self._decoded) > ENTRY_CACHE_SIZE:
            self._decoded.popitem(last=False)
        return entry

    def far(self, segment_id: int, slot: int) -> FrontierEntry:
        return self.entry(segment_id, slot, "far")

    def near(self, segment_id: int, slot: int) -> FrontierEntry:
        return self.entry(segment_id, slot, "near")

    def _compute(self, segment_id: int, slot: int, kind: Kind) -> FrontierEntry:
        self.expansions += 1
        result = time_bounded_expansion(
            self.network,
            segment_id,
            float(self.delta_t_s),
            self.travel_time_vector(kind, slot),
            reverse=kind.endswith("_rev"),
            # The Python cost list only feeds the expansion's scalar start;
            # on a network too large for it the supplier is never called
            # and the list is not built (and cached, 48x n floats) for
            # nothing.
            cost_list=lambda: self.travel_time_list(kind, slot),
        )
        return FrontierEntry(
            frontier=tuple(sorted(result.frontier)),
            cover=frozenset(result.arrival),
        )

    def invalidate_entries(self) -> None:
        """Discard memoized entries and speed vectors (data changed).

        Called when new trajectory data lands in the database: the
        Near/Far tables derive from observed speed bounds, so previously
        materialised entries may no longer be faithful.  Entries rebuild
        lazily on next access; the old on-disk records are simply
        abandoned (the simulated page store is append-only).
        """
        self._directory.clear()
        self._decoded.clear()
        self._tt_vectors.clear()
        self._tt_lists.clear()

    # -- bulk construction ---------------------------------------------------------

    def precompute(
        self,
        segment_ids: Iterable[int] | None = None,
        slots: Iterable[int] | None = None,
        kinds: tuple[Kind, ...] = ("far", "near"),
    ) -> int:
        """Eagerly build entries (the paper's offline index construction).

        Returns the number of entries materialised.
        """
        seg_list = (
            list(segment_ids)
            if segment_ids is not None
            else sorted(self.network.segment_ids())
        )
        slot_list = (
            [s % self.num_slots for s in slots]
            if slots is not None
            else list(range(self.num_slots))
        )
        built = 0
        for slot in slot_list:
            for segment_id in seg_list:
                for kind in kinds:
                    self.entry(segment_id, slot, kind)
                    built += 1
        return built

    @property
    def num_entries(self) -> int:
        return len(self._directory)
