"""A crash-safe file-backed disk with the SimulatedDisk page geometry.

``FileBackedDisk`` subclasses :class:`~repro.storage.disk.SimulatedDisk`
and keeps its entire I/O-accounting contract — ``read_page`` /
``write_page`` / ``extent_bytes`` / ``charge_reads`` charge the exact
same :class:`~repro.storage.disk.DiskStats` the RAM backend charges —
while persisting the page buffer in a directory of real files:

=====================  ========================================================
``superblock.json``    self-checksummed commit point: magic, format version,
                       generation, page size and count, sidecar checksum
``pages.<g>.bin``      the page buffer, ``num_pages * page_size`` raw bytes
``pages.<g>.crc``      per-page sidecar: ``(crc32(page slice), used length)``
                       as little-endian ``uint32`` pairs, parsed in one pass
``journal.<g>.log``    write-ahead append journal of commit records
=====================  ========================================================

The journal is the one record of what changed since the snapshot:
:meth:`FileBackedDisk.commit` appends one framed, checksummed record
(dirty pages + an opaque ``meta`` blob) and fsyncs, and
:meth:`FileBackedDisk.checkpoint` is that commit plus, once the journal
holds more than :data:`MAX_JOURNAL_SHARE` of the data file's bytes, a
:meth:`FileBackedDisk.compact` — the full snapshot, which also bounds
what a reopen replays.  A compaction publishes its files with
:func:`~repro.storage.backends.atomic.atomic_replace` (write-temp → fsync
→ rename); the generation suffix ``<g>`` makes the multi-file snapshot
atomic as a unit — generation ``g+1``'s data, sidecar and fresh journal
are written first and the superblock is flipped *last*, so a crash at any
interleaving leaves the previous generation fully intact and
authoritative.

Reopen replays the journal onto the last good snapshot; a torn or
truncated *final* record is the expected crash signature and is
discarded, while damage anywhere else raises
:class:`~repro.storage.backends.errors.TornWriteError`.  Page content is
faulted in lazily on first access, one run of adjacent non-resident pages
per ``seek`` + ``read``, every page of the run verified against its
sidecar checksum — a cold open touches only the superblock, sidecar and
journal, so a server can begin answering queries before reading a single
data page, and a flipped bit in any page surfaces as a typed
:class:`~repro.storage.backends.errors.CorruptSnapshotError` naming the
page, never as silently wrong query results.  A page's checksum is
computed once: it is kept while the page's bytes match what was verified
or published, so a compaction checksums only pages changed since.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple, Union

import numpy as np

from repro.injection import Injector
from repro.storage.backends.atomic import atomic_replace
from repro.storage.backends.errors import (
    CorruptSnapshotError,
    DiskFormatError,
    TornWriteError,
)
from repro.storage.crashsim import (
    FSYNC,
    JOURNAL,
    CrashPlan,
    SimulatedCrash,
    crash_point,
    torn_prefix,
)
from repro.storage.disk import DEFAULT_PAGE_SIZE, DiskError, SimulatedDisk

SUPERBLOCK_MAGIC = "repro-disk"
DISK_FORMAT_VERSION = 1
#: A checkpoint compacts once the journal holds more than this share of
#: the data file's bytes, which bounds what a reopen replays.
MAX_JOURNAL_SHARE = 1 / 32

#: The commit point; every other file is named by its generation.
SUPERBLOCK = "superblock.json"
#: Journal record framing: magic, payload length, payload crc32.
_JOURNAL_MAGIC = b"JREC"
JOURNAL_HEADER = struct.Struct("<4sII")
#: Per-page sidecar entry: crc32 of the full page slice, used length.
SIDECAR_ENTRY = struct.Struct("<II")
#: ``_page_crcs`` entry of a page whose bytes changed since it was last
#: verified or published; the next compaction computes it.
_STALE = -1


def generation_file(
    directory: Union[str, Path], suffix: str, generation: Optional[int] = None
) -> Path:
    """Generation ``g``'s data (``bin``), sidecar (``crc``) or journal (``log``);
    ``None`` reads the current ``g`` from the superblock, unvalidated."""
    if generation is None:
        superblock = json.loads((Path(directory) / SUPERBLOCK).read_text())
        generation = int(superblock["generation"])
    name = f"journal.{generation}.log" if suffix == "log" else f"pages.{generation}.{suffix}"
    return Path(directory) / name


def page_file(directory: Union[str, Path], page_id: int) -> Tuple[Path, int]:
    """The data file holding ``page_id`` and the page's offset in it
    (superblock unvalidated)."""
    superblock = json.loads((Path(directory) / SUPERBLOCK).read_text())
    path = generation_file(directory, "bin", superblock["generation"])
    return path, page_id * superblock["page_size"]


class FileBackedDisk(SimulatedDisk):
    """Durable, checksummed, journaled file backend.

    Opening an existing store directory loads and verifies its metadata
    and replays the journal; a directory without a superblock is
    initialised as a fresh empty store.  Use :meth:`open` when the store
    must already exist and :meth:`create` to force a fresh one.

    Args:
        path: store directory (created if missing).
        page_size: as for :class:`SimulatedDisk`; on open, the value
            comes from the superblock and this argument is ignored.
        crash_plan: deterministic :class:`~repro.storage.crashsim.
            CrashPlan` consulted at every fsync/rename/journal-record
            hook point (testing only).
        readonly: never touch the files — page writes stay in memory,
            :meth:`commit` is a no-op and :meth:`checkpoint` and
            :meth:`compact` raise.
            This is the serving-worker mode: shard engines may append
            in RAM but only the coordinator's disk is durable.
    """

    def __init__(
        self,
        path: Union[str, Path],
        page_size: int = DEFAULT_PAGE_SIZE,
        crash_plan: Optional[CrashPlan] = None,
        readonly: bool = False,
    ) -> None:
        super().__init__(page_size=page_size)
        self.directory = Path(path)
        self.readonly = readonly
        self.generation = 0
        self.recovered_tail = False  # a torn/truncated journal tail was discarded
        self._crash = Injector(crash_plan.specs if crash_plan is not None else ())
        # What ``_buf`` and ``_page_crcs`` view (see ``_grow_locked``).
        self._pages = np.zeros(0, np.uint8)  # guarded_by: _lock
        self._crcs = np.zeros(0, np.int64)  # guarded_by: _lock
        self._resident = bytearray()  # 1 per faulted-in page  # guarded_by: _lock
        self._dirty: set[int] = set()  # guarded_by: _lock
        self._page_crcs = self._crcs  # crc32 per page, or _STALE  # guarded_by: _lock
        self._data_bytes = 0  # size of the data file  # guarded_by: _lock
        self._journal_bytes = 0  # size of the journal  # guarded_by: _lock
        self._pages_faulted = 0  # guarded_by: _lock
        self._journal_metas: List[bytes] = []  # guarded_by: _lock
        self._record_count = 0  # records currently in the journal  # guarded_by: _lock
        self._data_file: Optional[BinaryIO] = None  # guarded_by: _lock
        if (self.directory / SUPERBLOCK).exists():
            with self._lock:
                self._load_locked()
        else:
            if readonly:
                raise DiskFormatError(f"no store at {self.directory} (missing superblock)")
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._lock:
                self._publish_locked(0)

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        crash_plan: Optional[CrashPlan] = None,
        readonly: bool = False,
    ) -> "FileBackedDisk":
        """Open an existing store; raises :class:`DiskFormatError` if absent."""
        if not (Path(path) / SUPERBLOCK).exists():
            raise DiskFormatError(f"no store at {path} (missing superblock)")
        return cls(path, crash_plan=crash_plan, readonly=readonly)

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "FileBackedDisk":
        """Create a fresh empty store, replacing any existing one at ``path``."""
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / SUPERBLOCK).unlink(missing_ok=True)
        return cls(path, page_size)

    @classmethod
    def copy_of(cls, path: Union[str, Path], source: SimulatedDisk) -> "FileBackedDisk":
        """A new store at ``path`` holding ``source``'s pages, stats reset.

        The pages are copied once, from :meth:`SimulatedDisk.state_view`
        under ``source``'s lock, then published as one snapshot.
        """
        disk = cls.create(path, source.page_size)
        with source.state_view() as (buffer, used), disk._lock:
            disk._adopt_locked(buffer, used)
        disk.compact()
        return disk

    # repro-lint: holds=_lock
    def _adopt_locked(self, buffer: memoryview, used: List[int]) -> None:
        """Install a copy of exported page state on this empty disk.  The
        arrays hold exactly the state: a copy is published, not grown."""
        self._pages = np.array(buffer, np.uint8)
        self._crcs = np.empty(len(used), np.int64)
        self._grow_locked(len(used))
        self._used = list(used)

    # -- introspection --------------------------------------------------

    @property
    def path(self) -> str:
        return str(self.directory)

    @property
    def pages_faulted(self) -> int:
        """Snapshot pages read (and verified) from the data file so far."""
        with self._lock:
            return self._pages_faulted

    @property
    def is_synced(self) -> bool:
        """True when every page mutation is durable (snapshot or journal)."""
        with self._lock:
            return not self._dirty

    @property
    def journal_record_count(self) -> int:
        """Records currently in the journal (replayed + appended)."""
        with self._lock:
            return self._record_count

    @property
    def journal_metas(self) -> Tuple[bytes, ...]:
        """Meta blobs of the journal records replayed at open, in order."""
        with self._lock:
            return tuple(self._journal_metas)

    # -- durability operations ------------------------------------------

    def commit(self, meta: bytes = b"") -> None:
        """Append all dirty pages (plus ``meta``) to the journal, fsynced.

        The cheap durability barrier: O(pages touched since the last
        commit), never a snapshot rewrite.  A no-op when there is
        nothing dirty and no meta to record, and always a no-op on a
        ``readonly`` disk (in-memory mutations stay in memory).
        """
        if self.readonly:
            return
        with self._lock:
            if not self._dirty and not meta:
                return
            pages = sorted(self._dirty)
            for page_id in pages:
                self._ensure_resident_locked(page_id, 1)
            payload = self._encode_journal_locked(pages, meta)
            self._journal_append_locked(payload)
            self._dirty.clear()
            self._journal_metas.append(meta)
            self._record_count += 1

    @property
    def checkpoint_compacts(self) -> bool:
        """True when the journal holds more than :data:`MAX_JOURNAL_SHARE`
        of the data file's bytes: a :meth:`checkpoint` whose commit leaves
        it so compacts."""
        with self._lock:
            return self._journal_bytes > MAX_JOURNAL_SHARE * self._data_bytes

    def checkpoint(self) -> None:
        """:meth:`commit` every dirty page, then :meth:`compact` when
        :attr:`checkpoint_compacts` holds.  Raises :class:`DiskError` on a
        ``readonly`` disk."""
        self._check_writable()
        self.commit()
        if self.checkpoint_compacts:
            self.compact()

    def compact(self) -> None:
        """Bake the full current state into a new snapshot generation.

        Faults in and verifies every page, writes generation ``g+1``'s
        data file, sidecar and an empty journal, then atomically flips the
        superblock — the single commit point.  A crash at any earlier step
        leaves generation ``g`` authoritative and untouched.
        Old-generation files are unlinked afterwards (best-effort;
        stragglers are ignored by open, which trusts only the superblock).
        """
        self._check_writable()
        with self._lock:
            old = self.generation
            self._publish_locked(old + 1)
        for suffix in ("bin", "crc", "log"):
            self._file(suffix, old).unlink(missing_ok=True)

    def _check_writable(self) -> None:
        if self.readonly:
            raise DiskError("cannot checkpoint a read-only FileBackedDisk")

    def verify(self) -> None:
        """Eagerly fault in and checksum-verify every snapshot page."""
        with self._lock:
            self._ensure_resident_locked(0, len(self._used))

    def close(self) -> None:
        with self._lock:
            if self._data_file is not None:
                self._data_file.close()
                self._data_file = None

    def replace_file(self, path: Union[str, Path], data: bytes) -> None:
        """:func:`atomic_replace` a file beside the store under this disk's
        crash plan, so every write of a save is a crash point."""
        atomic_replace(path, data, crash=self._crash)

    # -- SimulatedDisk hooks --------------------------------------------

    # repro-lint: holds=_lock
    def _allocate_locked(self, count: int) -> int:
        first = len(self._used)
        self._grow_locked(first + count)
        # Dirty so the next commit persists the geometry growth.
        if not self.readonly:
            self._dirty.update(range(first, first + count))
        return first

    # repro-lint: holds=_lock
    def _grow_locked(self, num_pages: int) -> None:
        """Size the page state to ``num_pages``, contents kept.

        ``_buf`` and ``_page_crcs`` view calloc-backed arrays with room to
        double, so a page never written or faulted in costs neither a
        memset nor memory, and growth no copy until the room is gone.
        Pages past ``_resident`` are new: zeroed and absent from the
        snapshot, so resident by definition.
        """
        first, size = len(self._resident), num_pages * self.page_size
        if size > self._pages.size:
            pages, crcs = np.zeros(2 * size, np.uint8), np.zeros(2 * num_pages, np.int64)
            pages[: len(self._buf)] = self._buf
            crcs[: len(self._page_crcs)] = self._page_crcs
            self._pages, self._crcs = pages, crcs
        self._buf = memoryview(self._pages)[:size]
        self._page_crcs = self._crcs[:num_pages]
        self._page_crcs[first:] = _STALE
        self._used.extend([0] * (num_pages - len(self._used)))
        self._resident.extend(b"\x01" * (num_pages - first))

    # repro-lint: holds=_lock
    def _ensure_resident_locked(
        self, first_page: int | np.ndarray, count: int | np.ndarray
    ) -> None:
        runs = [(first_page, first_page + count)]
        if np.ndim(first_page):  # a wave's runs: one vector test over their pages
            pages = np.repeat(first_page - count.cumsum() + count, count)
            pages += np.arange(pages.size)
            absent = np.unique(pages[np.frombuffer(self._resident, np.bool_)[pages] == 0])
            cuts = np.flatnonzero(np.diff(absent) != 1) + 1
            runs = [(int(run[0]), int(run[-1]) + 1) for run in np.split(absent, cuts) if run.size]
        for first, end in runs:
            start = self._resident.find(0, first, end)
            while start >= 0:
                stop = self._resident.find(1, start, end)
                stop = end if stop < 0 else stop
                self._fault_in_run_locked(start, stop)
                start = self._resident.find(0, stop, end)

    # repro-lint: holds=_lock
    def _note_writes_locked(self, first_page: int, count: int) -> None:
        # Readonly disks track dirtiness too: it is what keeps
        # ``is_synced`` honest if such a disk is ever exported.
        self._dirty.update(range(first_page, first_page + count))
        self._page_crcs[first_page : first_page + count] = _STALE

    # -- internal: fault-in ---------------------------------------------

    # repro-lint: holds=_lock
    def _fault_in_run_locked(self, first: int, stop: int) -> None:
        """Read non-resident pages ``[first, stop)`` with one seek + read.

        Every page is verified against its sidecar checksum; the pages
        before the first bad one become resident and count as faulted,
        then that page raises :class:`CorruptSnapshotError`.
        """
        size = self.page_size
        if self._data_file is None:
            self._data_file = open(self._file("bin"), "rb")
        self._data_file.seek(first * size)
        with memoryview(self._data_file.read((stop - first) * size)) as data:
            crcs = [zlib.crc32(data[lo : lo + size]) for lo in range(0, len(data) - size + 1, size)]
            expected = self._page_crcs[first : first + len(crcs)].tolist()
            good = len(crcs) if crcs == expected else next(
                i for i, (crc, want) in enumerate(zip(crcs, expected)) if crc != want
            )
            self._buf[first * size : (first + good) * size] = data[: good * size]
        self._resident[first : first + good] = b"\x01" * good
        self._pages_faulted += good
        page_id = first + good
        if good < len(crcs):
            raise CorruptSnapshotError(
                f"page {page_id} failed checksum verification against sidecar "
                f"{self._file('crc').name} (data file {self._file('bin').name})",
                page_id=page_id,
            )
        if page_id < stop:
            raise CorruptSnapshotError(
                f"data file {self._file('bin').name} ends inside page {page_id}",
                page_id=page_id,
            )

    # -- internal: journal ----------------------------------------------

    # repro-lint: holds=_lock
    def _encode_journal_locked(self, pages: List[int], meta: bytes) -> bytes:
        parts = [
            struct.pack("<III", len(self._used), len(meta), len(pages)),
            meta,
        ]
        for page_id in pages:
            start = page_id * self.page_size
            parts.append(struct.pack("<II", page_id, self._used[page_id]))
            parts.append(bytes(self._buf[start : start + self.page_size]))
        return b"".join(parts)

    # The journal is the one append-mode file write in the tree; this
    # helper IS the durability barrier RL011 routes appends through.
    # repro-lint: durable-barrier
    # repro-lint: holds=_lock
    def _journal_append_locked(self, payload: bytes) -> None:
        header = JOURNAL_HEADER.pack(_JOURNAL_MAGIC, len(payload), zlib.crc32(payload))
        record = header + payload
        path = self._file("log")
        old_size = path.stat().st_size
        torn = self._crash.fire(JOURNAL)
        data = torn_prefix(record, torn[0].kind) if torn else record
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            # One write() moves at most ~2 GiB on Linux: loop until done.
            with memoryview(data) as view:
                written = 0
                while written < len(view):
                    written += os.write(fd, view[written:])
            if torn:
                os.fsync(fd)
                raise SimulatedCrash(torn[0])
            crash_point(self._crash, FSYNC, undo=lambda: os.ftruncate(fd, old_size))
            os.fsync(fd)
        finally:
            os.close(fd)
        self._journal_bytes = old_size + len(record)

    # Audited raw-write site (RL011): the only write here is the recovery
    # truncate of a torn journal tail, idempotent and crash-safe by
    # construction (re-crashing re-truncates to the same record boundary).
    # repro-lint: durable-barrier
    # repro-lint: holds=_lock
    def _replay_journal_locked(self) -> None:
        path = self._file("log")
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise CorruptSnapshotError(
                f"journal {path.name} named by the superblock is missing"
            ) from None
        offset = 0
        index = 0
        good_end = 0
        while offset < len(data):
            if len(data) - offset < JOURNAL_HEADER.size:
                self.recovered_tail = True  # crash mid-header: discard fragment
                break
            magic, length, crc = JOURNAL_HEADER.unpack_from(data, offset)
            if magic != _JOURNAL_MAGIC:
                raise TornWriteError(
                    f"journal record {index} has bad framing magic at byte "
                    f"{offset} of {path.name}",
                    record_index=index,
                )
            body_start = offset + JOURNAL_HEADER.size
            if body_start + length > len(data):
                self.recovered_tail = True  # crash mid-payload: discard fragment
                break
            payload = data[body_start : body_start + length]
            if zlib.crc32(payload) != crc:
                if body_start + length == len(data):
                    # Torn final record: the crash signature; discard it.
                    self.recovered_tail = True
                    break
                raise TornWriteError(
                    f"journal record {index} failed checksum at byte {offset} "
                    f"of {path.name} and is not the final record",
                    record_index=index,
                )
            self._apply_journal_locked(payload, index)
            offset = body_start + length
            good_end = offset
            index += 1
        self._record_count = index
        self._journal_bytes = good_end
        if self.recovered_tail and not self.readonly:
            # Truncate the damaged tail so future appends extend a clean
            # journal.  Part of recovery, not a data-mutation path.
            os.truncate(path, good_end)

    # repro-lint: holds=_lock
    def _apply_journal_locked(self, payload: bytes, index: int) -> None:
        try:
            num_pages, meta_len, page_count = struct.unpack_from("<III", payload, 0)
            pos = 12
            meta = payload[pos : pos + meta_len]
            pos += meta_len
            if num_pages < len(self._used):
                raise ValueError("journal shrinks the disk")
            if num_pages > len(self._used):
                self._grow_locked(num_pages)
            for _ in range(page_count):
                page_id, used = struct.unpack_from("<II", payload, pos)
                pos += 8
                slice_ = payload[pos : pos + self.page_size]
                if len(slice_) != self.page_size or page_id >= num_pages:
                    raise ValueError("journal page entry out of bounds")
                if used > self.page_size:
                    raise ValueError("journal used length exceeds page size")
                pos += self.page_size
                start = page_id * self.page_size
                self._buf[start : start + self.page_size] = slice_
                self._used[page_id] = used
                self._resident[page_id] = 1
                self._page_crcs[page_id] = _STALE
        except (struct.error, ValueError) as exc:
            raise TornWriteError(
                f"journal record {index} is malformed: {exc}", record_index=index
            ) from None
        self._journal_metas.append(meta)

    # -- internal: snapshot load/publish --------------------------------

    def _file(self, suffix: str, generation: Optional[int] = None) -> Path:
        gen = self.generation if generation is None else generation
        return generation_file(self.directory, suffix, gen)

    # repro-lint: holds=_lock
    def _load_locked(self) -> None:
        sb_path = self.directory / SUPERBLOCK
        try:
            payload = json.loads(sb_path.read_text())
        except (OSError, ValueError) as exc:
            raise DiskFormatError(f"superblock.json is unreadable: {exc}") from None
        if not isinstance(payload, dict) or payload.get("magic") != SUPERBLOCK_MAGIC:
            raise DiskFormatError(
                f"superblock.json has bad magic {payload.get('magic')!r}"
                if isinstance(payload, dict)
                else "superblock.json is not a JSON object"
            )
        version = payload.get("format_version")
        if type(version) is not int or version != DISK_FORMAT_VERSION:
            raise DiskFormatError(
                f"disk format version {version!r} is not the supported "
                f"version {DISK_FORMAT_VERSION}"
            )
        stored_sum = payload.pop("checksum", None)
        expected = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
        if stored_sum != expected:
            raise CorruptSnapshotError(
                "superblock.json failed its self-checksum "
                f"(stored {stored_sum!r}, computed {expected})"
            )
        self.page_size = int(payload["page_size"])
        self.generation = int(payload["generation"])
        num_pages = int(payload["num_pages"])

        crc_path = self._file("crc")
        try:
            sidecar = crc_path.read_bytes()
        except OSError as exc:
            raise CorruptSnapshotError(
                f"checksum sidecar {crc_path.name} is unreadable: {exc}"
            ) from None
        if zlib.crc32(sidecar) != payload["sidecar_crc"]:
            raise CorruptSnapshotError(
                f"checksum sidecar {crc_path.name} failed verification against "
                "the superblock"
            )
        if len(sidecar) != num_pages * SIDECAR_ENTRY.size:
            raise CorruptSnapshotError(
                f"checksum sidecar {crc_path.name} covers "
                f"{len(sidecar) // SIDECAR_ENTRY.size} pages, superblock "
                f"says {num_pages}"
            )
        entries = np.frombuffer(sidecar, "<u4").reshape(-1, 2)
        oversized = np.flatnonzero(entries[:, 1] > self.page_size)
        if oversized.size:
            page_id = int(oversized[0])
            raise CorruptSnapshotError(
                f"sidecar used length {entries[page_id, 1]} for page {page_id} "
                f"exceeds page size {self.page_size}"
            )
        self._used = entries[:, 1].tolist()
        self._resident = bytearray(num_pages)  # no page faulted in yet
        self._grow_locked(num_pages)
        self._page_crcs[:] = entries[:, 0]
        bin_path = self._file("bin")
        try:
            data_size = bin_path.stat().st_size
        except OSError:
            raise CorruptSnapshotError(
                f"data file {bin_path.name} named by the superblock is missing"
            ) from None
        if data_size != num_pages * self.page_size:
            raise CorruptSnapshotError(
                f"data file {bin_path.name} is {data_size} bytes, expected "
                f"{num_pages * self.page_size}"
            )
        self._data_bytes = data_size
        if self.readonly:
            # Open now, not at the first fault-in: a writer's compaction
            # may unlink this generation's file in between, and POSIX keeps
            # an open file readable.
            self._data_file = open(bin_path, "rb")
        self._replay_journal_locked()

    # repro-lint: holds=_lock
    def _publish_locked(self, generation: int) -> None:
        """Publish every page as ``generation``, each verified first, and
        flip the superblock."""
        self._ensure_resident_locked(0, len(self._used))
        size, crcs = self.page_size, self._page_crcs
        with memoryview(self._buf) as buf:
            stale = np.flatnonzero(crcs == _STALE).tolist()
            crcs[stale] = [zlib.crc32(buf[p * size : (p + 1) * size]) for p in stale]
            if self._data_file is not None:
                self._data_file.close()
                self._data_file = None
            atomic_replace(self._file("bin", generation), buf, crash=self._crash)
        sidecar = np.column_stack((crcs, self._used)).astype("<u4").tobytes()
        atomic_replace(self._file("crc", generation), sidecar, crash=self._crash)
        atomic_replace(self._file("log", generation), b"", crash=self._crash)
        payload = {
            "magic": SUPERBLOCK_MAGIC,
            "format_version": DISK_FORMAT_VERSION,
            "generation": generation,
            "page_size": self.page_size,
            "num_pages": len(self._used),
            "sidecar_crc": zlib.crc32(sidecar),
        }
        payload["checksum"] = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
        atomic_replace(
            self.directory / SUPERBLOCK,
            json.dumps(payload, sort_keys=True, indent=2).encode(),
            crash=self._crash,
        )
        # The superblock rename was the commit point; state is clean.
        self.generation = generation
        self._data_bytes = len(self._used) * size
        self._journal_bytes = 0
        self._dirty.clear()
        self._journal_metas = []
        self._record_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        with self._lock:
            pages = len(self._used)
            faulted = self._pages_faulted
        return (
            f"FileBackedDisk(path={str(self.directory)!r}, pages={pages}, "
            f"gen={self.generation}, faulted={faulted})"
        )
