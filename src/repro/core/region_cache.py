"""A service-lifetime LRU cache for bounding regions.

:class:`RegionCache` is owned by the
:class:`~repro.core.service.QueryService`, so regions are shared *across*
batches, not just within one: nearby workloads stop re-expanding the same
regions every batch.  It has no lock of its own — it runs under the
engine lock the client takes at every entry point.

The cache key is exactly the region identity: ``(strategy, seeds, start
slot, Δt hops, Δt)`` — sub-slot start time and probability
threshold cannot change a bounding region, and Δt participates because
the same slot number means different wall-clock slots at different
granularities.  Invalidation is explicit: the service clears the cache
when an append moves the speed model or indexes are rebuilt.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable


class RegionCache:
    """LRU ``key -> BoundingRegion`` map with hit/miss counters.

    Args:
        capacity: maximum number of cached regions; least recently used
            entries are evicted beyond it.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(value, reused)``, computing and caching on a miss.

        A computation that raises caches nothing, so one failure does not
        poison the key.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key], True
        self.misses += 1
        value = compute()
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return value, False

    def invalidate(self) -> None:
        """Drop every cached region (data or index change)."""
        self._entries.clear()
        self.invalidations += 1

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }
