"""Record-oriented storage on top of the simulated disk.

:class:`PageStore` packs variable-length records into fixed-size pages.
Every record occupies an **extent** — a contiguous run of pages — so a
:class:`RecordPointer` is just ``(first_page, num_pages, offset, length)``
and reading records back is one :meth:`SimulatedDisk.extent_bytes` call:
one slice of the disk's backing buffer per record.  Reading still *charges*
every page of each extent — exactly the cost model the paper's index design
optimises against; only the Python work per read shrinks.

Writes are **group-committed**: the tail page stays in an in-memory write
buffer and is flushed when it fills (a page boundary) or on an explicit
:meth:`PageStore.flush`, so building an index charges about one
``page_write`` per page instead of one per record.  Reading a record whose
extent includes the dirty tail flushes it first, keeping readers coherent.

:class:`BufferPool` is the accounting half of a DBMS buffer manager: an LRU
of page *ids* that decides which page accesses are free (repeated access to
hot pages, e.g. the start segment's time list during trace-back search) and
which cost a disk read.  It keeps no page bytes — readers take payloads as
extent slices — so a miss is a charge, not a copy.
:meth:`BufferPool.get_pages` charges a whole batch of page accesses and
charges its misses in one :meth:`SimulatedDisk.charge_reads`, the entry
point the wave-granular record gathers use.

Neither class has a lock: a store and its pool belong to one engine, whose
lock the client takes at every entry point.  Only the shared disk locks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.storage.disk import DiskError, SimulatedDisk

#: Shortest :meth:`BufferPool.get_pages` call worth collapsing repeats in.
RUN_COLLAPSE_MIN_IDS = 64

@dataclass(frozen=True, slots=True)
class RecordPointer:
    """Location of a stored record: one extent plus offset and length.

    Attributes:
        first_page: first page id of the record's contiguous extent.
        num_pages: pages the record's bytes span (at least 1, so reading
            an empty record still charges the page that holds its slot —
            the same cost the chain layout used to charge).
        offset: byte offset of the record within the first page.
        length: total record length in bytes.
    """

    first_page: int
    num_pages: int
    offset: int
    length: int

    @property
    def page_ids(self) -> tuple[int, ...]:
        """The extent as explicit page ids (compatibility accessor)."""
        return tuple(range(self.first_page, self.first_page + self.num_pages))

    def __iter__(self):
        """The four fields in order, like the pointer's plain directory row."""
        return iter((self.first_page, self.num_pages, self.offset, self.length))


class PageStore:
    """Append-only record store over a :class:`SimulatedDisk`.

    Records are appended with :meth:`append` and fetched with :meth:`read`;
    a caller gathering a whole wave charges the pages itself through
    :meth:`BufferPool.get_pages`.  The store keeps an in-memory
    write buffer for the tail page and group-commits it (flush on page
    boundary, plus :meth:`flush` at build end); directory state (record
    pointers) lives in memory, as index directories do in the paper's
    design, while record *payloads* cost disk I/O to read back.
    """

    def __init__(self, disk: SimulatedDisk) -> None:
        self._disk = disk
        # The tail page is allocated lazily on first append, so opening a
        # store over existing pages (the persistence restore path) does
        # not grow the disk.
        self._tail_page_id: int | None = None
        self._tail = bytearray()
        self._dirty = False

    @property
    def disk(self) -> SimulatedDisk:
        return self._disk

    # -- writes ----------------------------------------------------------

    def append(self, payload: bytes) -> RecordPointer:
        """Store ``payload`` on one contiguous extent and return a pointer.

        The record continues the current tail page when possible; when the
        disk has since handed pages to another store (extents must stay
        contiguous), the tail is retired and the record starts a fresh
        extent at offset 0.  Full pages are written immediately (the group
        commit's page-boundary flush); a partial final page becomes the
        new dirty tail.
        """
        disk = self._disk
        page_size = disk.page_size
        if self._tail_page_id is None:
            self._tail_page_id = disk.allocate()
        data = memoryview(bytes(payload))
        length = len(data)
        offset = len(self._tail)
        space = page_size - offset

        if length <= space:
            if length:
                self._tail += data
                self._dirty = True
            pointer = RecordPointer(self._tail_page_id, 1, offset, length)
            if len(self._tail) == page_size:
                self._flush_tail()
                self._tail_page_id = None  # next append opens a fresh tail
                self._tail = bytearray()
            return pointer

        # Atomic check-and-extend: the continuation pages are allocated
        # only if the tail page is still the disk's last page, under the
        # disk's own lock — another store's interleaved allocation makes
        # this return None instead of silently breaking contiguity.
        extra = -(-(length - space) // page_size)
        first_new = disk.allocate_after(self._tail_page_id, extra)
        if first_new is not None:
            first = self._tail_page_id
            start_offset = offset
            self._tail += data[:space]
            consumed = space
            self._flush_tail()  # page boundary: the tail is now full
            num_pages = 1 + extra
        else:
            # Another store on this disk allocated pages since our tail
            # was handed out; retire the tail and pack the whole record
            # into a fresh contiguous extent.
            if self._dirty:
                self._flush_tail()
            first = first_new = disk.allocate(-(-length // page_size))
            start_offset = 0
            consumed = 0
            extra = num_pages = -(-length // page_size)

        rest = data[consumed:]
        full = len(rest) - len(rest) % page_size
        disk.write_extent(first_new, rest[:full])
        # A partial final page becomes the new (dirty) tail; a record that
        # ended on a page boundary leaves the next append a fresh one.
        self._tail = bytearray(rest[full:])
        self._dirty = bool(self._tail)
        self._tail_page_id = first_new + full // page_size if self._dirty else None
        return RecordPointer(first, num_pages, start_offset, length)

    def append_many(
        self, stream: "bytes | bytearray | memoryview | np.ndarray", lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Append the records packed back to back in ``stream``, in bulk.

        ``stream`` is any contiguous buffer and ``lengths[i]`` record
        ``i``'s byte length.  Returns the pointer columns ``(first_page,
        num_pages, offset, length)`` — the same pointers, pages,
        ``page_writes``/bytes and tail state as calling :meth:`append` once
        per record, but the placement is arithmetic on the running byte
        offset and every completed page lands through one
        :meth:`SimulatedDisk.write_extent`.
        """
        data = memoryview(stream).cast("B")
        sizes = np.asarray(lengths, dtype=np.int64)
        if sizes.ndim != 1 or (sizes.size and int(sizes.min()) < 0):
            raise ValueError("record lengths must be a 1-d non-negative array")
        if int(sizes.sum()) != len(data):
            raise ValueError(
                f"record lengths sum to {int(sizes.sum())} bytes, "
                f"stream holds {len(data)}"
            )
        return self._append_many(data, sizes)

    def _append_many(
        self, data: memoryview, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if lengths.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        disk = self._disk
        page_size = disk.page_size
        tail_page = self._tail_page_id
        held = len(self._tail)  # 0 when there is no tail page
        # Byte positions relative to the start of the tail page (or of the
        # fresh extent): a record that fills a page exactly leaves the next
        # one at offset 0 of the following page, as append's tail reset does.
        starts = held + np.cumsum(lengths) - lengths
        pages = starts // page_size
        offsets = starts - pages * page_size
        # An empty record still occupies (and charges) the page of its slot.
        num_pages = np.maximum((starts + lengths - 1) // page_size, pages) - pages + 1
        needed = int(pages[-1] + num_pages[-1])
        if tail_page is None:
            base = disk.allocate(needed)
        elif needed == 1 or disk.allocate_after(tail_page, needed - 1) is not None:
            base = tail_page
        else:
            # Another store allocated pages since our tail was handed out:
            # the records that still fit stay on the tail page, then the
            # tail is retired and the rest start a fresh extent at offset 0.
            fit = int(np.searchsorted(pages + num_pages, 1, side="right"))
            cut = int(lengths[:fit].sum())
            head = self._append_many(data[:cut], lengths[:fit])
            if self._dirty:
                self._flush_tail()
            self._tail_page_id = None
            self._tail = bytearray()
            rest = self._append_many(data[cut:], lengths[fit:])
            first, count, offset, length = (
                np.concatenate(pair) for pair in zip(head, rest)
            )
            return first, count, offset, length
        full = (held + len(data)) // page_size
        if full:
            # Pages completed by this call are written once each, full —
            # the page-boundary flushes of the scalar loop.
            cut = full * page_size - held
            if held:
                disk.write_extent(base, bytes(self._tail) + bytes(data[: page_size - held]))
                disk.write_extent(base + 1, data[page_size - held : cut])
            else:
                disk.write_extent(base, data[:cut])
            self._tail = bytearray(data[cut:])
            self._dirty = len(data) > cut
        elif len(data):
            self._tail += data
            self._dirty = True
        # The page after the completed ones is the new tail — unless the
        # stream ended exactly on a page boundary with no empty record
        # opening the next page.
        self._tail_page_id = base + full if needed > full else None
        return base + pages, num_pages, offsets, lengths

    def flush(self) -> None:
        """Write the dirty tail page out (the build-end group commit)."""
        if self._dirty:
            self._flush_tail()

    def ensure_committed(self, pointers) -> None:
        """Flush the tail iff any pointer's extent includes the dirty tail.

        The one dirty-tail check of every read: :meth:`read` and the
        batched gather path (which charges page accesses itself) call it
        before slicing record bytes out of the backing buffer.
        ``pointers`` are ``(first_page, num_pages, offset, length)`` rows —
        an ``(n, 4)`` array, plain tuples or :class:`RecordPointer`
        objects — tested in one vector pass.
        """
        if not self._dirty:
            return
        rows = np.array([tuple(row) for row in pointers], dtype=np.int64).reshape(-1, 4)
        tail = self._tail_page_id
        if ((rows[:, 0] <= tail) & (tail < rows[:, 0] + rows[:, 1])).any():
            self._flush_tail()

    def _flush_tail(self) -> None:
        self._disk.write_page(self._tail_page_id, bytes(self._tail))
        self._dirty = False

    # -- reads -----------------------------------------------------------

    def read(self, pointer: RecordPointer, pool: "BufferPool | None" = None) -> bytes:
        """Read a record back; every page of its extent is charged (or cached).

        The charge is per page — through the pool when given, straight to
        the disk otherwise — and the payload is one contiguous slice of
        the disk's backing buffer.  A record overlapping the dirty tail
        forces a tail flush first, so readers always see committed bytes.
        """
        self.ensure_committed((pointer,))
        if pool is not None:
            pool.get_pages(pointer.page_ids)
        else:
            self._disk.charge_reads(pointer.page_ids)
        return self._disk.extent_bytes(
            (pointer.first_page,), (pointer.offset,), (pointer.length,)
        )


class BufferPool:
    """A fixed-capacity LRU over disk page ids.

    The pool decides which page accesses cost a disk read — a hit is free,
    a miss is charged — and keeps no page bytes: readers take record
    payloads as extent slices (:meth:`SimulatedDisk.extent_bytes`), so a
    resident page is just its id.  A call's misses are charged through
    one :meth:`SimulatedDisk.charge_reads`.

    Args:
        disk: backing simulated disk.
        capacity: maximum number of resident pages; ``0`` disables
            caching (every access is a disk read).
    """

    def __init__(self, disk: SimulatedDisk, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._disk = disk
        self.capacity = capacity
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        disk.attach_pool(self)

    def get_page(self, page_id: int) -> None:
        """Charge one page access: free on a hit, one disk read on a miss."""
        self._access(self._checked((page_id,)))

    def get_pages(self, page_ids: Iterable[int]) -> None:
        """Charge a batch of page accesses in one pass.

        ``page_ids`` is a sequence or an integer array.  Identical to
        calling :meth:`get_page` once per id in order — same hits, misses,
        evictions, resident order and disk reads — but the misses are
        charged in one :meth:`SimulatedDisk.charge_reads`.  An access that
        repeats the previous id is a hit that leaves the LRU order alone at
        any capacity above 0, so in calls of :data:`RUN_COLLAPSE_MIN_IDS` or
        more ids it is counted before the LRU loop instead of in it.
        """
        ids = np.asarray(page_ids).ravel()
        if self.capacity and ids.size >= RUN_COLLAPSE_MIN_IDS and ids.dtype.kind in "iu":
            fresh = np.empty(ids.size, dtype=bool)
            fresh[0] = True
            np.not_equal(ids[1:], ids[:-1], out=fresh[1:])
            checked = self._checked(ids[fresh])
            self.hits += ids.size - len(checked)
        else:
            checked = self._checked(ids)
        self._access(checked)

    def _checked(self, page_ids) -> list[int]:
        """``page_ids`` as a list of ints, or :class:`DiskError` when one
        names no allocated page — raised before any counter, LRU entry or
        disk statistic changes."""
        ids = np.asarray(page_ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise DiskError(f"page ids must be integers, got {ids.dtype}")
        ids = ids.ravel().tolist()
        if ids and (min(ids) < 0 or max(ids) >= self._disk.num_pages):
            bad = next(i for i in ids if not 0 <= i < self._disk.num_pages)
            raise DiskError(f"page {bad} was never allocated")
        return ids

    def _access(self, ids: list[int]) -> None:
        if self.capacity == 0:
            misses = ids
        else:
            pages, misses = self._pages, []
            move_to_end = pages.move_to_end
            for page_id in ids:
                if page_id in pages:
                    move_to_end(page_id)
                    continue
                misses.append(page_id)
                pages[page_id] = None
                if len(pages) > self.capacity:
                    pages.popitem(last=False)
                    self.evictions += 1
            self.hits += len(ids) - len(misses)
        self.misses += len(misses)
        if misses:
            self._disk.charge_reads(misses)

    def invalidate(self, page_id: int | None = None, count: int = 1) -> None:
        """Drop ``count`` pages from ``page_id`` on (or everything) from the pool."""
        if page_id is None:
            self._pages.clear()
        elif self._pages:
            for page in range(page_id, page_id + count):
                self._pages.pop(page, None)
