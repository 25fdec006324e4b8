"""Simulated disk storage substrate.

The paper's central performance argument is about *disk I/O*: verifying
trajectory reachability segment by segment reads enormous trajectory time
lists from disk, and the ST-Index/Con-Index design exists to skip most of
those reads.  This package provides the storage substrate that makes those
savings first-class and measurable:

* :class:`~repro.storage.disk.SimulatedDisk` — a page-addressed disk with
  read/write counters and an accounted latency model.
* :class:`~repro.storage.pagestore.PageStore` — a record store on top of the
  disk; each record lives on one contiguous *extent* of pages and writes
  are group-committed page-at-a-time.
* :class:`~repro.storage.pagestore.BufferPool` — a striped LRU page cache
  with single-flight misses; only cache misses charge disk reads,
  mirroring a DBMS buffer manager, and
  :meth:`~repro.storage.pagestore.BufferPool.get_pages` charges a whole
  wave of records' pages in one pass.
* :mod:`~repro.storage.serialization` — compact binary record codecs.
* :mod:`~repro.storage.backends` — pluggable disk backends: the in-RAM
  default plus the durable, checksummed, journaled
  :class:`~repro.storage.backends.filedisk.FileBackedDisk`.
* :mod:`~repro.storage.crashsim` — deterministic crash/corruption
  injection for proving the durable backend's recovery guarantees.
"""

from repro.storage.backends import (
    DISK_BACKENDS,
    CorruptSnapshotError,
    DiskFormatError,
    DurabilityError,
    FileBackedDisk,
    TornWriteError,
    create_disk,
)
from repro.storage.disk import DiskError, DiskStats, SimulatedDisk
from repro.storage.pagestore import (
    DEFAULT_POOL_SHARDS,
    BufferPool,
    PageStore,
    RecordPointer,
)

__all__ = [
    "SimulatedDisk",
    "FileBackedDisk",
    "create_disk",
    "DISK_BACKENDS",
    "DiskError",
    "DiskStats",
    "DurabilityError",
    "DiskFormatError",
    "CorruptSnapshotError",
    "TornWriteError",
    "PageStore",
    "BufferPool",
    "RecordPointer",
    "DEFAULT_POOL_SHARDS",
]
