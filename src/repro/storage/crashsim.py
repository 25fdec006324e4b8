"""Deterministic crash and corruption injection for the durable backend.

The durable storage tier makes the serving layer's promise: every
failure mode is reproducible from a plan, never from timing.  Crashes
fire on **operation counters** (the Nth fsync barrier, the Nth snapshot
rename, the Nth journal record a disk instance writes), kept by the
:class:`~repro.injection.Injector` that also counts the worker faults of
:mod:`repro.serving.faults`, so a test that injects a plan observes the
identical on-disk state on every run without sleeps, subprocesses or
real power cuts:

* ``CRASH_BEFORE_FSYNC`` — the process dies after issuing a write but
  before the matching ``fsync`` barrier completes.  A real kernel may
  never have put those bytes on the platter, so the injector *undoes*
  the unsynced write (deleting the temp file / truncating the journal
  back) before raising: the reopened store must recover to the previous
  durable state.
* ``CRASH_MID_RENAME`` — the temp file is fully written and fsynced but
  the process dies before the atomic ``rename`` publishes it.  The
  orphaned ``*.tmp`` file is left behind; the reopened store must ignore
  it and serve the old snapshot.
* ``TORN_PAGE_WRITE`` — a journal record's page payload is only
  partially written when the process dies (a torn sector write): the
  record's framing is intact but its payload checksum cannot match.
* ``TRUNCATED_JOURNAL_RECORD`` — the process dies mid-header: the
  journal ends in a fragment too short to even frame a record.

The injected "crash" is a raised :class:`SimulatedCrash`; the test
discards the in-memory disk object (the process's RAM "died") and
reopens the on-disk directory, which is now in exactly the state a real
crash at that point would leave.  Corruption — bit flips in a data page,
the checksum sidecar, the superblock or a journal record of a *closed*
store — is injected by the ``corrupt_*`` helpers below, which take the
file names and framing from the backend, and must surface as a typed
:class:`~repro.storage.backends.CorruptSnapshotError` /
:class:`~repro.storage.backends.TornWriteError` naming the damage.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Mapping, Optional

from repro.injection import Injector, Plan, Spec

CRASH_BEFORE_FSYNC = "crash_before_fsync"
CRASH_MID_RENAME = "crash_mid_rename"
TORN_PAGE_WRITE = "torn_page_write"
TRUNCATED_JOURNAL_RECORD = "truncated_journal_record"

#: The file backend's three hooks: before every ``fsync`` barrier, before
#: every snapshot ``rename``, and once per journal record append.
FSYNC = "fsync"
RENAME = "rename"
JOURNAL = "journal"


class SimulatedCrash(BaseException):
    """The injected process death.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so no
    ``except Exception`` recovery path inside the storage tier can
    accidentally "survive" a crash that is supposed to kill the process
    — the test harness catches it explicitly at the top.
    """

    def __init__(self, spec: "CrashSpec") -> None:
        super().__init__(f"simulated crash: {spec.kind} (occurrence {spec.at})")
        self.spec = spec


@dataclass(frozen=True)
class CrashSpec(Spec):
    """One injected crash: *what* dies and *when*.

    Attributes:
        kind: one of the four crash kinds above.
        at: 1-based trigger count on the matching operation counter —
            the disk's Nth fsync barrier for ``CRASH_BEFORE_FSYNC``,
            its Nth snapshot rename for ``CRASH_MID_RENAME``, its Nth
            journal record for the torn/truncated kinds.  Counters are
            per disk instance (a reopened disk starts fresh).
    """

    HOOKS: ClassVar[Mapping[str, str]] = {
        CRASH_BEFORE_FSYNC: FSYNC,
        CRASH_MID_RENAME: RENAME,
        TORN_PAGE_WRITE: JOURNAL,
        TRUNCATED_JOURNAL_RECORD: JOURNAL,
    }


class CrashPlan(Plan):
    """An immutable set of :class:`CrashSpec` entries (plain data)."""


def counting_plan() -> CrashPlan:
    """A plan that never fires but makes a disk count every hook pass, so
    an unplanned run yields its crash points (:func:`crash_points`)."""
    return CrashPlan.of(*(CrashSpec(kind, at=sys.maxsize) for kind in CrashSpec.HOOKS))


def crash_points(disk) -> dict[str, int]:
    """Passes through each hook so far of a disk opened with
    :func:`counting_plan`: ``{FSYNC: n, RENAME: m, JOURNAL: k}``."""
    return {hook: disk._crash.passes(hook) for hook in (FSYNC, RENAME, JOURNAL)}


def crash_point(
    injector: Injector, hook: str, undo: Optional[Callable[[], object]] = None
) -> None:
    """Die here if a spec fires on this pass through ``hook``.

    ``undo`` reverts the write a real crash could lose (an unsynced
    temp file, a journal append) before :class:`SimulatedCrash` is raised.
    """
    for spec in injector.fire(hook):
        if undo is not None:
            undo()
        raise SimulatedCrash(spec)


def _backend():
    # The one module that knows the on-disk layout; imported on use
    # because it imports this module for its hooks.
    from repro.storage.backends import filedisk

    return filedisk


def torn_prefix(record: bytes, kind: str) -> bytes:
    """The fragment of ``record`` that reaches disk before the crash.

    ``TORN_PAGE_WRITE`` keeps the header and roughly half the payload
    (the framing parses, the payload CRC cannot match);
    ``TRUNCATED_JOURNAL_RECORD`` keeps only part of the header (the
    journal ends mid-frame).
    """
    header_size = _backend().JOURNAL_HEADER.size
    if kind == TORN_PAGE_WRITE:
        keep = header_size + max(1, (len(record) - header_size) // 2)
        return record[: min(keep, len(record) - 1)]
    if kind == TRUNCATED_JOURNAL_RECORD:
        return record[: header_size // 2]
    raise ValueError(f"not a torn-write crash kind: {kind!r}")


# -- corruption injection (closed stores) --------------------------------------
#
# These operate on the files of a *closed* FileBackedDisk directory and
# model silent media corruption: a single flipped bit in a data page,
# the checksum sidecar, the superblock, or a journal record.  The backend
# names the current generation's files from the superblock without
# validating it — they must work on the files exactly as persisted.


def _flip_bit(path: Path, byte_offset: int, bit: int = 0) -> None:
    data = bytearray(path.read_bytes())
    if not 0 <= byte_offset < len(data):
        raise ValueError(
            f"byte offset {byte_offset} outside {path.name} ({len(data)} bytes)"
        )
    data[byte_offset] ^= 1 << (bit & 7)
    path.write_bytes(bytes(data))


def corrupt_page(directory: str | Path, page_id: int) -> None:
    """Flip one bit inside ``page_id`` of the persisted data file."""
    _flip_bit(*_backend().page_file(directory, page_id))


def corrupt_sidecar(directory: str | Path, page_id: int = 0) -> None:
    """Flip one bit inside the per-page checksum sidecar."""
    backend = _backend()
    _flip_bit(backend.generation_file(directory, "crc"), page_id * backend.SIDECAR_ENTRY.size)


def corrupt_superblock(directory: str | Path) -> None:
    """Flip one bit inside the superblock JSON."""
    _flip_bit(Path(directory) / _backend().SUPERBLOCK, 12)


def corrupt_journal_record(directory: str | Path, record_index: int = 0) -> None:
    """Flip one bit in the payload of the Nth journal record.

    Walks the record framing (magic, payload length, payload CRC) to find
    the target record's payload, then flips its first bit — interior
    corruption a reopen must surface as a
    :class:`~repro.storage.backends.TornWriteError`, never replay.
    Raises ``ValueError`` when the journal has no record ``record_index``.
    """
    backend = _backend()
    header = backend.JOURNAL_HEADER
    path = backend.generation_file(directory, "log")
    data = path.read_bytes()
    starts, offset = [], 0
    while offset + header.size <= len(data):
        starts.append(offset)
        offset += header.size + header.unpack_from(data, offset)[1]
    if not 0 <= record_index < len(starts):
        raise ValueError(
            f"journal {path.name} has {len(starts)} record(s), no record {record_index}"
        )
    _flip_bit(path, starts[record_index] + header.size)
