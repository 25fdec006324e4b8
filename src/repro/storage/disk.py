"""A simulated page-addressed disk with I/O accounting.

The evaluation in the paper measures query *running time*, which is dominated
by trajectory-data disk access (§1.2, §3.2.2).  Reproducing that on a laptop
with the OS page cache warm would hide exactly the effect the paper measures,
so every trajectory time-list access in this reproduction goes through a
:class:`SimulatedDisk`.  The disk keeps page payloads in memory but charges
an explicit, queryable cost for every page read and write; benchmarks report
both wall-clock time (real Python work still scales with pages touched) and
the accounted I/O cost.

Pages live in **one growable contiguous buffer** (not one object per page),
so a page is an offset range and a record stored on an *extent* — a
contiguous run of pages handed out by :meth:`SimulatedDisk.allocate` — can
be served as a single buffer slice instead of a per-page join loop.  All
counter updates run under one internal lock, so threaded batch workers
produce exact totals; every update is additionally mirrored onto the
calling thread's private counters (:meth:`SimulatedDisk.local_snapshot`),
so a worker thread can window exactly its own query's I/O while the batch
runs concurrently.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # circular at runtime: pagestore imports this module
    from repro.storage.pagestore import BufferPool


DEFAULT_PAGE_SIZE = 4096

#: Accounted cost of one page read, in simulated milliseconds.  The default
#: approximates a single random read on a 7200 rpm disk, matching the
#: magnitude that makes trajectory verification "prohibitively inefficient"
#: in §3.2.2.  Purely an accounting constant; nothing sleeps.
DEFAULT_READ_LATENCY_MS = 8.0

#: Accounted cost of one page write, in simulated milliseconds.
DEFAULT_WRITE_LATENCY_MS = 10.0


class DiskError(Exception):
    """Raised on invalid page accesses (bad page id, oversized payload)."""


@dataclass
class DiskStats:
    """Counters accumulated by a :class:`SimulatedDisk` and its pools.

    Attributes:
        page_reads: number of page read operations served by the disk.
        page_writes: number of page write operations served.
        bytes_read: total payload bytes returned by reads.
        bytes_written: total payload bytes accepted by writes.
        pool_hits: page requests served from attached buffer pools.
        pool_misses: pool requests that fell through to a disk read.
        pool_evictions: pages dropped from full pools (LRU pressure).

    The pool counters measure cache effectiveness: ``pool_hits`` pages
    were requested but never charged as ``page_reads``, and sustained
    ``pool_evictions`` mean the working set exceeds pool capacity.
    """

    page_reads: int = 0
    page_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of pool requests served without a disk read."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def copy(self) -> "DiskStats":
        return DiskStats(
            page_reads=self.page_reads,
            page_writes=self.page_writes,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            pool_hits=self.pool_hits,
            pool_misses=self.pool_misses,
            pool_evictions=self.pool_evictions,
        )

    def __sub__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            page_reads=self.page_reads - other.page_reads,
            page_writes=self.page_writes - other.page_writes,
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
            pool_hits=self.pool_hits - other.pool_hits,
            pool_misses=self.pool_misses - other.pool_misses,
            pool_evictions=self.pool_evictions - other.pool_evictions,
        )

    def __add__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            page_reads=self.page_reads + other.page_reads,
            page_writes=self.page_writes + other.page_writes,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            pool_hits=self.pool_hits + other.pool_hits,
            pool_misses=self.pool_misses + other.pool_misses,
            pool_evictions=self.pool_evictions + other.pool_evictions,
        )


class SimulatedDisk:
    """An in-memory disk that charges for page-granular I/O.

    Pages are identified by dense integer ids handed out by :meth:`allocate`
    and backed by one contiguous ``bytearray``: page ``i`` occupies byte
    range ``[i * page_size, (i + 1) * page_size)``.  Payloads may be shorter
    than ``page_size`` (trailing space is considered unused) but never
    longer.

    Args:
        page_size: capacity of one page in bytes.
        read_latency_ms: accounted cost per page read.
        write_latency_ms: accounted cost per page write.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        read_latency_ms: float = DEFAULT_READ_LATENCY_MS,
        write_latency_ms: float = DEFAULT_WRITE_LATENCY_MS,
    ) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.read_latency_ms = read_latency_ms
        self.write_latency_ms = write_latency_ms
        self.stats = DiskStats()  # guarded_by: _lock
        self._buf = bytearray()  # guarded_by: _lock
        self._used: list[int] = []  # payload length per page  # guarded_by: _lock
        self._pools: list[weakref.ReferenceType] = []  # guarded_by: _lock
        # One lock covers buffer mutation and counter updates, so batch
        # worker threads accumulate exact stats.  Buffer pools may call in
        # while holding their shard locks; the disk never calls back into
        # a pool while holding this lock (write-through invalidation runs
        # after it is released), so the lock order is always
        # shard -> disk and cannot deadlock.
        self._lock = threading.Lock()
        # Per-thread counter mirrors: every update below also lands on the
        # calling thread's private DiskStats, so :meth:`local_snapshot`
        # can open an accounting window that sees only the current
        # thread's I/O — the per-query attribution batch worker threads
        # need.  Thread-local, so no lock is required.
        self._tlocal = threading.local()

    # -- allocation ----------------------------------------------------

    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` fresh contiguous pages (an *extent*).

        Returns the first page id of the run; no I/O is charged.  With the
        default ``count=1`` this is the classic single-page allocation.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        with self._lock:
            return self._allocate_locked(count)

    def allocate_after(self, page_id: int, count: int) -> int | None:
        """Atomically extend the extent ending at ``page_id``.

        Returns the first id of ``count`` fresh pages *iff* ``page_id``
        is still the disk's last page — the check and the allocation
        happen under one lock, so no other store's allocation can slip
        between them.  Returns ``None`` when ``page_id`` is no longer
        last (the caller must start a fresh extent instead).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        with self._lock:
            if page_id != len(self._used) - 1:
                return None
            return self._allocate_locked(count)

    # repro-lint: holds=_lock
    def _allocate_locked(self, count: int) -> int:
        first = len(self._used)
        self._buf.extend(b"\x00" * (count * self.page_size))
        self._used.extend([0] * count)
        return first

    @property
    def num_pages(self) -> int:
        with self._lock:
            return len(self._used)

    # -- I/O -----------------------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        """Read one page, charging a read to the stats."""
        local = self._local_stats()
        with self._lock:
            used = self._used_checked(page_id)
            self._ensure_resident_locked(page_id, 1)
            self.stats.page_reads += 1
            self.stats.bytes_read += used
            local.page_reads += 1
            local.bytes_read += used
            start = page_id * self.page_size
            return bytes(self._buf[start : start + used])

    def charge_reads(self, page_ids: Sequence[int]) -> None:
        """Charge a batch of page reads in one pass (no payloads returned).

        Accounting-identical to calling :meth:`read_page` once per id, in
        order — the same counts and bytes — but takes the stats lock once.
        The batched record-gather path uses this when the payload bytes
        are served as a single extent slice rather than per-page chunks.
        """
        local = self._local_stats()
        with self._lock:
            total_bytes = 0
            for page_id in page_ids:
                total_bytes += self._used_checked(page_id)
            self.stats.page_reads += len(page_ids)
            self.stats.bytes_read += total_bytes
            local.page_reads += len(page_ids)
            local.bytes_read += total_bytes

    def write_page(self, page_id: int, payload: bytes) -> None:
        """Write one page, charging a write to the stats.

        Any attached buffer pool drops its cached copy (write-through
        invalidation), so readers never see a stale page after the store's
        tail page is extended in place.
        """
        if len(payload) > self.page_size:
            raise DiskError(
                f"payload of {len(payload)} bytes exceeds page size {self.page_size}"
            )
        local = self._local_stats()
        with self._lock:
            self._used_checked(page_id)
            self._ensure_resident_locked(page_id, 1)
            start = page_id * self.page_size
            self._buf[start : start + len(payload)] = payload
            self._used[page_id] = len(payload)
            self._note_write_locked(page_id)
            self.stats.page_writes += 1
            self.stats.bytes_written += len(payload)
            local.page_writes += 1
            local.bytes_written += len(payload)
            pools = [ref() for ref in self._pools]
        # Invalidate outside the lock: pools take their own shard locks
        # and may call back into the disk on their next miss.
        for pool in pools:
            if pool is not None:
                pool.invalidate(page_id)

    def write_extent(self, first_page: int, data: bytes | memoryview) -> None:
        """Write ``data`` over consecutive pages starting at ``first_page``.

        The bulk twin of :meth:`write_page`: every page is filled to
        ``page_size`` except possibly the last, and each gets exactly the
        per-page effects of a ``write_page`` loop — payload length, backend
        residency/dirty hooks, one ``page_writes`` and its bytes on the
        global and thread-local counters, write-through invalidation of
        attached pools — under a single lock acquisition and one buffer
        copy.
        """
        size = len(data)
        count = -(-size // self.page_size)
        if count == 0:
            return
        local = self._local_stats()
        with self._lock:
            self._used_checked(first_page)
            self._used_checked(first_page + count - 1)
            self._ensure_resident_locked(first_page, count)
            start = first_page * self.page_size
            self._buf[start : start + size] = data
            used = [self.page_size] * count
            used[-1] = size - (count - 1) * self.page_size
            self._used[first_page : first_page + count] = used
            for page_id in range(first_page, first_page + count):
                self._note_write_locked(page_id)
            self.stats.page_writes += count
            self.stats.bytes_written += size
            local.page_writes += count
            local.bytes_written += size
            pools = [ref() for ref in self._pools]
        # Invalidate outside the lock, as in write_page.
        for pool in pools:
            if pool is not None:
                for page_id in range(first_page, first_page + count):
                    pool.invalidate(page_id)

    def extent_bytes(self, first_page: int, offset: int, length: int) -> bytes:
        """Uncharged contiguous slice of an extent's payload bytes.

        The data half of a record read: the caller charges the touched
        pages (directly or through a buffer pool), then takes the record's
        bytes as one slice of the backing buffer — no per-page join.  Only
        meaningful for extents written front-to-back by a
        :class:`~repro.storage.pagestore.PageStore`.
        """
        if length < 0 or offset < 0:
            raise DiskError(f"bad extent slice offset={offset} length={length}")
        start = first_page * self.page_size + offset
        with self._lock:
            if start + length > len(self._buf):
                raise DiskError("extent slice beyond allocated pages")
            if length > 0:
                span_first = start // self.page_size
                span_last = (start + length - 1) // self.page_size
                self._ensure_resident_locked(span_first, span_last - span_first + 1)
            return bytes(self._buf[start : start + length])

    def attach_pool(self, pool: BufferPool) -> None:
        """Register a buffer pool for write-through invalidation.

        Dead references are pruned and re-attaching a live pool is a
        no-op, so a pool can never be invalidated (or counted by
        :meth:`snapshot`) twice.
        """
        with self._lock:
            live = []
            for ref in self._pools:
                existing = ref()
                if existing is None:
                    continue
                if existing is pool:
                    return
                live.append(ref)
            live.append(weakref.ref(pool))
            self._pools = live

    # -- accounting ----------------------------------------------------

    def simulated_io_ms(self, stats: DiskStats | None = None) -> float:
        """Accounted I/O time in milliseconds for ``stats`` (default: own)."""
        if stats is None:
            with self._lock:
                stats = self.stats.copy()
        return (
            stats.page_reads * self.read_latency_ms
            + stats.page_writes * self.write_latency_ms
        )

    def snapshot(self) -> DiskStats:
        """A copy of the current counters, for before/after differencing.

        Includes the hit/miss/eviction counters of every *live* attached
        buffer pool, so a snapshot difference reports cache effectiveness
        next to the raw I/O it saved.  References to collected pools are
        pruned here as well as in :meth:`attach_pool`, so a long-lived
        service that retires many pools neither leaks weakrefs nor
        double-counts a pool that re-attaches.
        """
        with self._lock:
            stats = self.stats.copy()
            live: list[weakref.ReferenceType] = []
            pools = []
            for ref in self._pools:
                pool = ref()
                if pool is None:
                    continue
                live.append(ref)
                pools.append(pool)
            self._pools = live
        for pool in pools:
            stats.pool_hits += pool.hits
            stats.pool_misses += pool.misses
            stats.pool_evictions += pool.evictions
        return stats

    def local_snapshot(self) -> DiskStats:
        """The calling thread's own counters, for per-query windows.

        Same shape as :meth:`snapshot` — disk counters plus live pools'
        hit/miss/eviction counters — but restricted to I/O the *current
        thread* performed.  Differencing two local snapshots around a
        query attributes exactly that query's page accesses to it even
        while other batch worker threads are reading concurrently;
        single-threaded the difference is identical to a global-snapshot
        difference.  Summing per-thread windows that cover all activity
        reproduces the global totals (a single-flight page fetch is
        charged to the thread that performed it; waiters record hits).
        """
        stats = self._local_stats().copy()
        with self._lock:
            pools = [ref() for ref in self._pools]
        for pool in pools:
            if pool is None:
                continue
            hits, misses, evictions = pool.local_counters()
            stats.pool_hits += hits
            stats.pool_misses += misses
            stats.pool_evictions += evictions
        return stats

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = DiskStats()

    # -- persistence ----------------------------------------------------

    def export_state(self) -> tuple[bytes, tuple[int, ...]]:
        """The backing buffer and per-page payload lengths, for persisting.

        Snapshotted atomically under ``_lock`` so a save racing a
        threaded batch can never export a half-written tail page.
        """
        with self._lock:
            self._ensure_resident_locked(0, len(self._used))
            return bytes(self._buf), tuple(self._used)

    def export_sparse_state(
        self, page_ids: Iterable[int]
    ) -> tuple[bytes, tuple[int, ...]]:
        """Export only ``page_ids``; every other page comes back zeroed.

        The result is :meth:`from_state`-compatible and preserves the
        full disk's page geometry — page ids, extent offsets and payload
        lengths of the selected pages are unchanged — so record pointers
        into the original disk stay valid on the restored copy.  This is
        the replica export: it carries exactly the pages the ST-Index
        directory references and none of the Con-Index pages the parent
        appended while serving.
        """
        wanted = sorted(set(page_ids))
        with self._lock:
            num_pages = len(self._used)
            buf = bytearray(num_pages * self.page_size)
            used = [0] * num_pages
            for page_id in wanted:
                self._used_checked(page_id)
                self._ensure_resident_locked(page_id, 1)
                start = page_id * self.page_size
                buf[start : start + self.page_size] = self._buf[
                    start : start + self.page_size
                ]
                used[page_id] = self._used[page_id]
            return bytes(buf), tuple(used)

    @classmethod
    def from_state(
        cls,
        buffer: bytes,
        used: Iterable[int],
        page_size: int = DEFAULT_PAGE_SIZE,
        read_latency_ms: float = DEFAULT_READ_LATENCY_MS,
        write_latency_ms: float = DEFAULT_WRITE_LATENCY_MS,
    ) -> "SimulatedDisk":
        """Rebuild a disk from :meth:`export_state` output (stats reset)."""
        disk = cls(
            page_size=page_size,
            read_latency_ms=read_latency_ms,
            write_latency_ms=write_latency_ms,
        )
        used_list = [int(u) for u in used]
        if len(buffer) != len(used_list) * page_size:
            raise DiskError(
                f"buffer of {len(buffer)} bytes does not cover "
                f"{len(used_list)} pages of {page_size} bytes"
            )
        if any(u < 0 or u > page_size for u in used_list):
            raise DiskError("per-page payload length outside [0, page_size]")
        disk._buf = bytearray(buffer)
        disk._used = used_list
        return disk

    def commit(self, meta: bytes = b"") -> None:
        """Durability barrier: make all writes since the last commit durable.

        The in-RAM backend has nothing to persist, so this is a no-op —
        but callers that mutate pages (``STIndex.append_trajectories``)
        route through it unconditionally, and the file-backed backend
        overrides it to append a journal record.  ``meta`` is an opaque
        blob the backend stores alongside the pages (the index ships its
        directory delta here) and returns verbatim from a reopened
        store's ``journal_metas``.
        """

    # -- internal --------------------------------------------------------

    # repro-lint: holds=_lock
    def _ensure_resident_locked(self, first_page: int, count: int) -> None:
        """Backend hook: fault ``count`` pages into ``_buf`` before access.

        The in-RAM backend's buffer is always resident, so this is a
        no-op; the file-backed backend overrides it to read and
        checksum-verify pages from the data file on first touch.  Called
        with ``_lock`` held, immediately before any code path that reads
        or overwrites bytes of ``_buf``.
        """

    # repro-lint: holds=_lock
    def _note_write_locked(self, page_id: int) -> None:
        """Backend hook: record that ``page_id`` now differs from the file.

        No-op in RAM; the file-backed backend marks the page dirty so
        the next :meth:`commit` journals it.  Called with ``_lock`` held.
        """

    def _local_stats(self) -> DiskStats:
        stats = getattr(self._tlocal, "stats", None)
        if stats is None:
            stats = self._tlocal.stats = DiskStats()
        return stats

    # repro-lint: holds=_lock
    def _used_checked(self, page_id: int) -> int:
        if not 0 <= page_id < len(self._used):
            raise DiskError(f"page {page_id} was never allocated")
        return self._used[page_id]

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        with self._lock:
            pages = len(self._used)
            reads = self.stats.page_reads
            writes = self.stats.page_writes
        return f"SimulatedDisk(pages={pages}, reads={reads}, writes={writes})"
