"""Pluggable disk backends behind the :class:`SimulatedDisk` contract.

Two backends share one page geometry and one I/O-accounting contract:
the in-RAM :class:`~repro.storage.disk.SimulatedDisk` (fast, volatile —
the default everywhere) and the durable
:class:`~repro.storage.backends.filedisk.FileBackedDisk` (checksummed
pages in a real file, atomic snapshots, write-ahead append journal).
Code that takes a disk never needs to know which it got: ``DiskStats``
charges are identical, so every equivalence suite runs against both.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.storage.backends.atomic import atomic_replace
from repro.storage.backends.errors import (
    CorruptSnapshotError,
    DiskFormatError,
    DurabilityError,
    TornWriteError,
)
from repro.storage.backends.filedisk import FileBackedDisk
from repro.storage.disk import DEFAULT_PAGE_SIZE, SimulatedDisk

#: Backend names accepted by :func:`create_disk` and the CLI ``--disk`` flag.
DISK_BACKENDS = ("sim", "file")


def create_disk(
    backend: str = "sim",
    path: Optional[Union[str, Path]] = None,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> SimulatedDisk:
    """Build a disk by backend name (``"sim"`` in-RAM, ``"file"`` durable).

    The ``"file"`` backend requires ``path`` (the store directory); an
    existing store there is opened (its geometry wins over the
    arguments), otherwise a fresh empty store is initialised.
    """
    if backend == "sim":
        return SimulatedDisk(page_size=page_size)
    if backend == "file":
        if path is None:
            raise ValueError("disk backend 'file' requires a store path")
        return FileBackedDisk(path, page_size=page_size)
    raise ValueError(f"unknown disk backend {backend!r}; expected one of {DISK_BACKENDS}")


__all__ = [
    "DISK_BACKENDS",
    "CorruptSnapshotError",
    "DiskFormatError",
    "DurabilityError",
    "FileBackedDisk",
    "TornWriteError",
    "atomic_replace",
    "create_disk",
]
