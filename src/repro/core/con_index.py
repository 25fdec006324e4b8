"""The Connection Index (§3.2.2).

For each road segment and Δt time slot, the Con-Index records which
segments are at most reachable within one slot: the **Far** list, built
from the *maximum* observed speeds by the modified network-expansion
algorithm of [21] with per-slot travel times derived from historical speed
statistics.  The paper also keeps a **Near** list (minimum speeds) for the
minimum bounding region Bmin; its only use was the trace-back's unverified
interior, which the ring probe no longer has, and every Near entry lies
inside the Far entry of the same (segment, slot), so it is not built.

Entries are materialised lazily (or eagerly via :meth:`precompute`) and
held in memory under an LRU bound, each as a sorted read-only ``int64`` id
array.  The index is derived state, like the paper's offline build from
speed statistics: it is never written to the disk and never saved with a
store, and an evicted entry is simply recomputed.  The SQMB hot path reads
the same handful of entries for every query in a sweep, which is
precisely why the paper's query processing "skip[s] some network
expansion steps" cheaply.  Entries and travel-time vectors depend on the
network and the speed statistics alone, so they live until the
database's ``speed_revision`` moves; appended time lists leave them be.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Literal

import numpy as np

from repro.core.slots import check_delta_t, slot_of, slots_per_day
from repro.network.expansion import time_bounded_expansion
from repro.network.model import RoadNetwork
from repro.trajectory.model import SECONDS_PER_DAY
from repro.trajectory.store import TrajectoryDatabase

#: Entry direction: forward (successors) or ``_rev`` (predecessors).
Kind = Literal["far", "far_rev"]

#: Capacity of a Con-Index's entry LRU (the in-memory index cache); an
#: evicted entry is recomputed on its next use.
ENTRY_CACHE_SIZE = 100_000


class ConnectionIndex:
    """Far connection tables over (segment, slot) pairs.

    Args:
        network: re-segmented road network.
        database: trajectory database supplying observed speed bounds.
        delta_t_s: slot width Δt in seconds (same granularity as ST-Index).
    """

    def __init__(
        self,
        network: RoadNetwork,
        database: TrajectoryDatabase,
        delta_t_s: int,
    ) -> None:
        self.network = network
        self.database = database
        self.delta_t_s = check_delta_t(delta_t_s)
        self.num_slots = slots_per_day(self.delta_t_s)
        self._entries: OrderedDict[tuple[str, int, int], np.ndarray] = OrderedDict()
        #: The database ``speed_revision`` the entries and vectors rest on.
        self.speed_revision = database.speed_revision
        self._tt_vectors: dict[int, np.ndarray] = {}
        self._tt_lists: dict[int, list[float]] = {}
        # The CSR view the cached vectors were built for.
        self._tt_csr = None
        # Entries computed: first builds and recomputes after an eviction.
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

    def travel_time_vector(self, slot: int) -> np.ndarray:
        """Per-CSR-row traversal seconds under the slot's maximum speeds.

        Segments with no historical observations in (or near) the slot's
        hour are impassable (``inf``): a data-driven index cannot vouch
        for roads no trajectory ever used.  Speed bounds are hourly, so
        the vector is cached per hour — at most 24 arrays serve every slot
        of the day, in either direction — and every expansion (entry
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
        vector = self._tt_vectors.get(hour)
        if vector is None:
            found, _, hi = self.database.speed_bounds(csr.ids, hour)
            speeds = np.where(found, hi, 0.0)
            vector = np.full(csr.n, float("inf"))
            positive = speeds > 0
            vector[positive] = csr.lengths[positive] / speeds[positive]
            self._tt_vectors[hour] = vector
        return vector

    def travel_time_list(self, slot: int) -> list[float]:
        """:meth:`travel_time_vector` as a plain Python list (cached).

        The expansion kernels' scalar fast path walks costs in a Python
        loop; handing it a ready-made list avoids a per-expansion
        ``tolist`` conversion.
        """
        # Resolving the vector first also validates the CSR view (stale
        # caches are cleared there when the topology changed).
        vector = self.travel_time_vector(slot)
        hour = self.slot_hour(slot)
        values = self._tt_lists.get(hour)
        if values is None:
            values = vector.tolist()
            self._tt_lists[hour] = values
        return values

    # -- entry access -------------------------------------------------------------

    def entry(self, segment_id: int, slot: int, kind: Kind) -> np.ndarray:
        """The one-slot cover F(segment, slot) — every segment reachable
        within the slot (``kind="far_rev"``: every segment that reaches
        it) — as a sorted read-only ``int64`` id array.

        Materialised lazily and kept in an LRU; a miss (first use or after
        eviction) runs the expansion and counts in :attr:`expansions`.
        """
        slot %= self.num_slots
        key = (kind, segment_id, slot)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            return cached
        entry = self._compute(segment_id, slot, kind)
        self._entries[key] = entry
        if len(self._entries) > ENTRY_CACHE_SIZE:
            self._entries.popitem(last=False)
        return entry

    def _compute(self, segment_id: int, slot: int, kind: Kind) -> np.ndarray:
        self.expansions += 1
        arrival = time_bounded_expansion(
            self.network,
            segment_id,
            float(self.delta_t_s),
            self.travel_time_vector(slot),
            reverse=kind.endswith("_rev"),
            # The Python cost list only feeds the expansion's scalar start;
            # on a network too large for it the supplier is never called
            # and the list is not built (and cached, 24x n floats) for
            # nothing.
            cost_list=lambda: self.travel_time_list(slot),
        ).arrival
        cover = np.fromiter(arrival, dtype=np.int64, count=len(arrival))
        cover.sort()
        cover.flags.writeable = False
        return cover

    def invalidate_entries(self) -> None:
        """Discard memoized entries and speed vectors (speed model changed).

        Called when the database's ``speed_revision`` moved: the Far
        tables derive from observed speed bounds, so previously
        materialised entries may no longer be faithful.  Entries rebuild
        lazily on next access.
        """
        self.speed_revision = self.database.speed_revision
        self._entries.clear()
        self._tt_vectors.clear()
        self._tt_lists.clear()

    # -- bulk construction ---------------------------------------------------------

    def precompute(
        self,
        segment_ids: Iterable[int] | None = None,
        slots: Iterable[int] | None = None,
    ) -> int:
        """Eagerly build forward Far entries (the paper's offline index
        construction).

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
        for slot in slot_list:
            for segment_id in seg_list:
                self.entry(segment_id, slot, "far")
        return len(slot_list) * len(seg_list)

    @property
    def num_entries(self) -> int:
        """Entries held in memory (at most :data:`ENTRY_CACHE_SIZE`)."""
        return len(self._entries)
