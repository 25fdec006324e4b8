"""A striped LRU of page ids: the accounting contract of ``BufferPool``.

The model keeps, per stripe, a plain list of resident page ids (least
recently used first) and charges every access one at a time in call order,
next to the ``DiskStats`` the simulated disk would accumulate underneath.
A call naming a page the disk never allocated raises before anything
changes.  ``tests/test_storage.py`` runs random access sequences through
this and the real pool side by side.
"""

from __future__ import annotations

from repro.storage.disk import DiskStats


class StripedLRUModel:
    """``BufferPool`` over a disk of ``num_pages`` pages, page by page."""

    def __init__(self, num_pages: int, capacity: int, shards: int) -> None:
        count = max(1, min(shards, capacity)) if capacity > 0 else 1
        base, remainder = divmod(capacity, count)
        self.capacity = capacity
        self.quotas = [base + (1 if i < remainder else 0) for i in range(count)]
        self.stripes: list[list[int]] = [[] for _ in range(count)]
        self.used = [0] * num_pages
        self.hits = self.misses = self.evictions = 0
        self.stats = DiskStats()

    def access(self, page_ids) -> None:
        """``get_page`` / ``get_pages``: every id charged in order."""
        page_ids = [int(page_id) for page_id in page_ids]
        if any(not 0 <= page_id < len(self.used) for page_id in page_ids):
            raise ValueError("page never allocated")
        for page_id in page_ids:
            stripe = self.stripes[page_id % len(self.stripes)]
            if self.capacity and page_id in stripe:
                self.hits += 1
                stripe.remove(page_id)
                stripe.append(page_id)
                continue
            self.misses += 1
            self.stats.page_reads += 1
            self.stats.bytes_read += self.used[page_id]
            if self.capacity:
                stripe.append(page_id)
                if len(stripe) > self.quotas[page_id % len(self.stripes)]:
                    stripe.pop(0)
                    self.evictions += 1

    def invalidate(self, page_id: int | None = None) -> None:
        for stripe in self.stripes:
            if page_id is None:
                stripe.clear()
            elif page_id in stripe:
                stripe.remove(page_id)

    def write_page(self, page_id: int, length: int) -> None:
        """A disk write: counted, and the page leaves the pool."""
        self.used[page_id] = length
        self.stats.page_writes += 1
        self.stats.bytes_written += length
        self.invalidate(page_id)

    def resident(self) -> set[int]:
        return {page_id for stripe in self.stripes for page_id in stripe}
