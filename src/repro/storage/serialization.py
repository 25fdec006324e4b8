"""The varint codec of the durable append journal's directory deltas.

An ST-Index append records the directory rows it added (record pointers
chained onto ``(segment, slot)`` entries) as one journal meta blob:
unsigned LEB128 varints, so small ids and offsets take one or two bytes.
The time-list records themselves are encoded by
:mod:`repro.core.st_index`; the Con-Index is never stored.
"""

from __future__ import annotations

import numpy as np

#: A value below ``1 << 7k`` takes k varint bytes.
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)


class SerializationError(Exception):
    """Raised when a payload cannot be decoded."""


def _decode_varint(payload: bytes, offset: int) -> tuple[int, int]:
    """Decode one varint at ``offset``; return (value, next offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(payload):
            raise SerializationError("truncated varint")
        byte = payload[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise SerializationError("varint too long")


def encode_append_delta(
    delta_t_s: int,
    entries: list[tuple[int, ...]] | tuple[tuple[int, ...], ...] | np.ndarray,
) -> bytes:
    """Encode an ST-Index directory delta for the durable append journal.

    ``entries`` are the directory rows an ``append_trajectories`` call
    added, as plain int tuples ``(segment_id, slot, first_page,
    num_pages, offset, length)`` — a record pointer appended to the
    ``(segment_id, slot)`` chain.  The slot width tags the delta so a
    reopened store can refuse to apply a journal written at a different
    index granularity.  Plain tuples (or an ``int64`` array of rows) keep
    this codec free of any import of the index or pagestore layers.
    """
    try:
        rows = np.asarray(entries, dtype=np.int64).reshape(len(entries), 6)
    except (OverflowError, ValueError):
        raise SerializationError("append-delta entries must be 6 varint fields each") from None
    values = np.concatenate(([delta_t_s, len(rows)], rows.ravel()))
    if values.min() < 0:
        raise SerializationError(f"varints are unsigned, got {values.min()}")
    # LEB128 of every value at once: its 7-bit groups, low first, each but
    # its last with the continuation bit.
    values = values.astype(np.uint64)
    width = _VARINT_LIMITS.searchsorted(values, "right") + 1
    group = np.arange(width.max())
    out = (values[:, None] >> (7 * group).astype(np.uint64)) & np.uint64(0x7F)
    out[group < width[:, None] - 1] |= np.uint64(0x80)
    return out[group < width[:, None]].astype(np.uint8).tobytes()


def decode_append_delta(
    payload: bytes,
) -> tuple[int, tuple[tuple[int, int, int, int, int, int], ...]]:
    """Inverse of :func:`encode_append_delta`."""
    delta_t_s, offset = _decode_varint(payload, 0)
    count, offset = _decode_varint(payload, offset)
    entries = []
    for _ in range(count):
        fields = []
        for _ in range(6):
            value, offset = _decode_varint(payload, offset)
            fields.append(value)
        entries.append(tuple(fields))
    if offset != len(payload):
        raise SerializationError("trailing bytes after append delta")
    return delta_t_s, tuple(entries)
