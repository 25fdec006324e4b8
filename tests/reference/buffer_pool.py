"""An LRU of page ids: the accounting contract of ``BufferPool``.

The model keeps a plain list of resident page ids (least recently used
first) and charges every access one at a time in call order, next to the
``DiskStats`` the simulated disk would accumulate underneath.  A call
naming a page the disk never allocated raises before anything changes.
``tests/test_storage.py`` runs random access sequences through this and
the real pool side by side.
"""

from __future__ import annotations

from repro.storage.disk import DiskStats


class LRUModel:
    """``BufferPool`` over a disk of ``num_pages`` pages, page by page."""

    def __init__(self, num_pages: int, capacity: int) -> None:
        self.capacity = capacity
        self.pages: list[int] = []
        self.used = [0] * num_pages
        self.hits = self.misses = self.evictions = 0
        self.stats = DiskStats()

    def access(self, page_ids) -> None:
        """``get_page`` / ``get_pages``: every id charged in order."""
        page_ids = [int(page_id) for page_id in page_ids]
        if any(not 0 <= page_id < len(self.used) for page_id in page_ids):
            raise ValueError("page never allocated")
        for page_id in page_ids:
            if self.capacity and page_id in self.pages:
                self.hits += 1
                self.pages.remove(page_id)
                self.pages.append(page_id)
                continue
            self.misses += 1
            self.stats.page_reads += 1
            self.stats.bytes_read += self.used[page_id]
            if self.capacity:
                self.pages.append(page_id)
                if len(self.pages) > self.capacity:
                    self.pages.pop(0)
                    self.evictions += 1

    def invalidate(self, page_id: int | None = None) -> None:
        if page_id is None:
            self.pages.clear()
        elif page_id in self.pages:
            self.pages.remove(page_id)

    def write_page(self, page_id: int, length: int) -> None:
        """A disk write: counted, and the page leaves the pool."""
        self.used[page_id] = length
        self.stats.page_writes += 1
        self.stats.bytes_written += length
        self.invalidate(page_id)

    def resident(self) -> set[int]:
        return set(self.pages)
