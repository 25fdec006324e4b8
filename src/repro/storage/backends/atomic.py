"""The single atomic-publish primitive of the durable tier.

Every file the backend persists — snapshot data, checksum sidecar,
superblock, store metadata — goes through :func:`atomic_replace`:
write the full content to a temp file in the same directory, ``fsync``
it, then ``os.replace`` over the destination.  POSIX rename is atomic,
so a reader (or a post-crash reopen) sees either the complete old file
or the complete new file, never a prefix.  This function is the
*durable barrier* repro-lint rule RL011 recognises: raw ``open(...,
"w")``-style writes on a save path anywhere else in the tree fail lint.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.injection import Injector
from repro.storage.crashsim import FSYNC, RENAME, crash_point


# repro-lint: durable-barrier
def atomic_replace(
    path: Union[str, Path],
    data: Union[bytes, bytearray],
    crash: Optional[Injector] = None,
) -> None:
    """Atomically replace ``path``'s content with ``data``.

    Sequence: write ``path + ".tmp"`` in full (one ``write()`` moves at
    most ~2 GiB on Linux, so it loops until every byte is out) →
    ``fsync`` the temp file → ``os.replace`` onto ``path`` → ``fsync``
    the directory so the rename itself is durable.  ``crash`` hooks the
    two vulnerable points: before the temp-file fsync (the unsynced temp
    is removed, as a real crash could leave it absent or partial —
    recovery must not trust ``*.tmp`` files) and before the rename (the
    synced temp is orphaned; the old destination still rules).
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with memoryview(data) as view:
            written = 0
            while written < len(view):
                written += os.write(fd, view[written:])
        if crash is not None:
            # Unlinking while the fd is open is fine on POSIX; the
            # except arm below closes it before the crash propagates.
            crash_point(crash, FSYNC, undo=lambda: tmp.unlink(missing_ok=True))
        os.fsync(fd)
        os.close(fd)
    except BaseException:
        try:
            os.close(fd)
        except OSError:
            pass
        raise
    if crash is not None:
        crash_point(crash, RENAME)
    os.replace(tmp, target)
    _fsync_dir(target.parent)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry so a completed rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
