"""Record-oriented storage on top of the simulated disk.

:class:`PageStore` packs variable-length records into fixed-size pages.
Every record occupies an **extent** — a contiguous run of pages — so a
:class:`RecordPointer` is just ``(first_page, num_pages, offset, length)``
and reading a record back is a single slice of the disk's backing buffer
instead of a per-page join loop.  Reading still *charges*
``ceil(record bytes / page size)``-ish pages — exactly the cost model the
paper's index design optimises against; only the Python work per read
shrinks.

Writes are **group-committed**: the tail page stays in an in-memory write
buffer and is flushed when it fills (a page boundary) or on an explicit
:meth:`PageStore.flush`, so building an index charges about one
``page_write`` per page instead of one per record.  Reading a record whose
extent includes the dirty tail flushes it first, keeping readers coherent.

:class:`BufferPool` interposes an LRU page cache, so repeated access to hot
pages (e.g. the start segment's time list during trace-back search) is free
after the first read, mirroring a DBMS buffer manager.  The pool is
**striped** into independently locked LRU shards (``page_id % shards``)
with *single-flight* miss handling — a miss is fetched while the shard
lock is held, so two threads missing the same page charge exactly one disk
read and threaded-batch :class:`~repro.storage.disk.DiskStats` stay
deterministic.  :meth:`BufferPool.get_pages` charges a whole batch of page
accesses taking each shard lock once, the entry point the wave-granular
record gathers use.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.storage.disk import SimulatedDisk

#: Default lock-stripe count for :class:`BufferPool`.  Small enough that a
#: few-hundred-page pool still gets meaningfully sized LRU shards, large
#: enough that batch worker threads rarely contend on one lock.
DEFAULT_POOL_SHARDS = 8


@dataclass(frozen=True)
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

    def __contains__(self, page_id: int) -> bool:
        return self.first_page <= page_id < self.first_page + self.num_pages

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

    The tail state is guarded by an internal lock, so concurrent appends
    (the Con-Index materialises entries lazily from query worker
    threads) cannot interleave a record's extent; reads are thread-safe
    via the same lock plus the disk's and pool's own locks.
    """

    def __init__(self, disk: SimulatedDisk) -> None:
        self._disk = disk
        # The tail page is allocated lazily on first append, so opening a
        # store over existing pages (the persistence restore path) does
        # not grow the disk.
        self._tail_page_id: int | None = None  # guarded_by: _tail_lock
        self._tail = bytearray()  # guarded_by: _tail_lock
        self._dirty = False  # guarded_by: _tail_lock
        self._tail_lock = threading.Lock()

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
        with self._tail_lock:
            return self._append_locked(payload)

    # repro-lint: holds=_tail_lock
    def _append_locked(self, payload: bytes) -> RecordPointer:
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

        for i in range(extra):
            chunk = data[consumed : consumed + page_size]
            consumed += len(chunk)
            if len(chunk) == page_size:
                disk.write_page(first_new + i, bytes(chunk))
            else:
                # Partial final page: becomes the new (dirty) tail.
                self._tail_page_id = first_new + i
                self._tail = bytearray(chunk)
                self._dirty = True
                break
        else:
            # The record ended exactly on a page boundary; the next
            # append opens a fresh tail.
            self._tail_page_id = None
            self._tail = bytearray()
            self._dirty = False
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
        with self._tail_lock:
            return self._append_many_locked(data, sizes)

    # repro-lint: holds=_tail_lock
    def _append_many_locked(
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
            head = self._append_many_locked(data[:cut], lengths[:fit])
            if self._dirty:
                self._flush_tail()
            self._tail_page_id = None
            self._tail = bytearray()
            rest = self._append_many_locked(data[cut:], lengths[fit:])
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
        # Double-checked fast path: a stale False only skips a flush some
        # other writer is responsible for; the locked re-check decides.
        if not self._dirty:  # repro-lint: disable=RL001
            return
        with self._tail_lock:
            if self._dirty:
                self._flush_tail()

    def ensure_committed(
        self, pointers: "Iterable[RecordPointer | tuple[int, int, int, int]]"
    ) -> None:
        """Flush the tail iff any pointer's extent includes the dirty tail.

        Callers that charge page accesses themselves (the batched gather
        path) use this before slicing record bytes out of the backing
        buffer; they may hand over :class:`RecordPointer` objects or plain
        ``(first_page, num_pages, offset, length)`` rows.  The unlocked
        ``_dirty`` fast check is safe: a pointer only becomes visible to
        readers after its append returned, at which point any of its
        unflushed bytes have already set the flag.
        """
        # Double-checked fast path; see the docstring for why the unlocked
        # read cannot miss a flush a visible pointer depends on.
        if not self._dirty:  # repro-lint: disable=RL001
            return
        with self._tail_lock:
            if not self._dirty:
                return
            tail = self._tail_page_id
            for first_page, num_pages, _, _ in pointers:
                if first_page <= tail < first_page + num_pages:
                    self._flush_tail()
                    return

    # repro-lint: holds=_tail_lock
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
        # Snapshot the tail id: a concurrent append can flush a full tail
        # and reset it to None between these reads (dirty implies a tail
        # exists only under the lock).
        # Double-checked fast path: the unlocked snapshot only gates entry
        # to the locked re-check, which re-reads both fields.
        tail = self._tail_page_id  # repro-lint: disable=RL001
        if self._dirty and tail is not None and tail in pointer:  # repro-lint: disable=RL001
            with self._tail_lock:
                tail = self._tail_page_id
                if self._dirty and tail is not None and tail in pointer:
                    self._flush_tail()
        if pool is not None:
            if pointer.num_pages == 1:
                pool.get_page(pointer.first_page)
            else:
                pool.get_pages(pointer.page_ids)
        else:
            self._disk.charge_reads(pointer.page_ids)
        return self._disk.extent_bytes(
            pointer.first_page, pointer.offset, pointer.length
        )


class _PoolShard:
    """One lock stripe of a :class:`BufferPool`: an LRU map plus counters."""

    __slots__ = ("lock", "pages", "quota", "hits", "misses", "evictions")

    def __init__(self, quota: int) -> None:
        self.lock = threading.Lock()
        self.pages: OrderedDict[int, bytes] = OrderedDict()
        self.quota = quota
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class BufferPool:
    """A fixed-capacity LRU cache of disk pages, striped for concurrency.

    Pages map to ``page_id % num_shards`` lock stripes, each an
    independent LRU holding its share of the capacity.  A miss is fetched
    from the disk *while the shard lock is held* — the single-flight
    guarantee: a second thread requesting the same missing page blocks on
    the shard lock and then hits the freshly cached copy, so concurrent
    misses charge exactly one disk read and the hit/miss counters match
    the sequential schedule.  (The simulated disk read is memory-speed, so
    holding the lock across it costs nothing; other shards stay
    available.)

    Args:
        disk: backing simulated disk.
        capacity: maximum number of cached pages across all shards; ``0``
            disables caching (every access is a disk read).
        shards: requested lock-stripe count; clamped to ``capacity`` so
            every shard holds at least one page.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int = 256,
        shards: int = DEFAULT_POOL_SHARDS,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._disk = disk
        self.capacity = capacity
        count = max(1, min(shards, capacity)) if capacity > 0 else 1
        base, remainder = divmod(capacity, count)
        self._shards = [
            _PoolShard(base + (1 if i < remainder else 0)) for i in range(count)
        ]
        # Per-thread mirrors of the hit/miss/eviction counters, updated
        # alongside the shard counters: the disk's local_snapshot sums
        # them so per-query accounting windows stay exact under threads.
        self._tlocal = threading.local()
        disk.attach_pool(self)

    def _local(self) -> list:
        counters = getattr(self._tlocal, "counters", None)
        if counters is None:
            counters = self._tlocal.counters = [0, 0, 0]
        return counters

    def local_counters(self) -> tuple[int, int, int]:
        """The calling thread's (hits, misses, evictions) contributions."""
        counters = self._local()
        return counters[0], counters[1], counters[2]

    @property
    def num_shards(self) -> int:
        """Lock stripes backing the pool (the ``pool_lock_shards`` metric)."""
        return len(self._shards)

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in self._shards)

    def get_page(self, page_id: int) -> bytes:
        """Return a page, reading from disk only on a cache miss."""
        local = self._local()
        if self.capacity == 0:
            shard = self._shards[0]
            with shard.lock:
                shard.misses += 1
            local[1] += 1
            return self._disk.read_page(page_id)
        shard = self._shards[page_id % len(self._shards)]
        with shard.lock:
            pages = shard.pages
            cached = pages.get(page_id)
            if cached is not None:
                shard.hits += 1
                local[0] += 1
                pages.move_to_end(page_id)
                return cached
            # Single flight: fetch under the shard lock, so a concurrent
            # request for the same page waits here and then hits.
            shard.misses += 1
            local[1] += 1
            payload = self._disk.read_page(page_id)
            pages[page_id] = payload
            if len(pages) > shard.quota:
                pages.popitem(last=False)
                shard.evictions += 1
                local[2] += 1
            return payload

    def get_pages(self, page_ids: Iterable[int]) -> None:
        """Charge (and cache) a batch of page accesses in one pass.

        Semantically identical to calling :meth:`get_page` once per id in
        order — same hits, misses, evictions and disk reads, duplicates
        charged every time — but each shard's lock is taken once per
        batch.  Accesses are processed per shard in input order; shards
        are independent LRUs, so cross-shard interleaving cannot change
        any counter.  Returns nothing: batch callers take record payloads
        as extent slices, the pool only accounts and keeps pages warm.
        """
        local = self._local()
        if self.capacity == 0:
            ids = list(page_ids)
            shard = self._shards[0]
            with shard.lock:
                shard.misses += len(ids)
            local[1] += len(ids)
            self._disk.charge_reads(ids)
            return
        if isinstance(page_ids, (list, tuple)) and len(page_ids) == 1:
            self.get_page(page_ids[0])
            return
        count = len(self._shards)
        if count == 1:
            buckets = [(self._shards[0], list(page_ids))]
        else:
            grouped: dict[int, list[int]] = {}
            for page_id in page_ids:
                grouped.setdefault(page_id % count, []).append(page_id)
            buckets = [(self._shards[i], ids) for i, ids in grouped.items()]
        read_page = self._disk.read_page
        for shard, ids in buckets:
            with shard.lock:
                pages = shard.pages
                pages_get = pages.get
                move_to_end = pages.move_to_end
                quota = shard.quota
                hits = 0
                for page_id in ids:
                    if pages_get(page_id) is not None:
                        hits += 1
                        move_to_end(page_id)
                        continue
                    shard.misses += 1
                    local[1] += 1
                    pages[page_id] = read_page(page_id)
                    if len(pages) > quota:
                        pages.popitem(last=False)
                        shard.evictions += 1
                        local[2] += 1
                shard.hits += hits
                local[0] += hits

    def invalidate(self, page_id: int | None = None) -> None:
        """Drop one page (or everything) from the cache."""
        if page_id is None:
            for shard in self._shards:
                with shard.lock:
                    shard.pages.clear()
            return
        shard = self._shards[page_id % len(self._shards)]
        with shard.lock:
            shard.pages.pop(page_id, None)
