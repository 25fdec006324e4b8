"""Compact binary codecs for records stored on the simulated disk.

Time lists (§3.2.1) are lists of integer trajectory IDs keyed by
``(road segment, time slot, date)``; connection tables (§3.2.2) are lists of
integer segment IDs.  Both are stored as length-prefixed arrays of unsigned
varints so that record size — and therefore the number of pages a read
touches — tracks the actual data volume, which is what the paper's I/O
argument depends on.
"""

from __future__ import annotations


class SerializationError(Exception):
    """Raised when a payload cannot be decoded."""


def _encode_varint(value: int) -> bytes:
    """LEB128-style unsigned varint."""
    if value < 0:
        raise SerializationError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


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
    entries: list[tuple[int, int, int, int, int, int]]
    | tuple[tuple[int, int, int, int, int, int], ...],
) -> bytes:
    """Encode an ST-Index directory delta for the durable append journal.

    ``entries`` are the directory rows an ``append_trajectories`` call
    added, as plain int tuples ``(segment_id, slot, first_page,
    num_pages, offset, length)`` — a record pointer appended to the
    ``(segment_id, slot)`` chain.  The slot width tags the delta so a
    reopened store can refuse to apply a journal written at a different
    index granularity.  Plain tuples keep this codec free of any import
    of the index or pagestore layers.
    """
    parts = [_encode_varint(delta_t_s), _encode_varint(len(entries))]
    for entry in entries:
        if len(entry) != 6:
            raise SerializationError(f"append-delta entry must have 6 fields, got {entry!r}")
        parts.extend(_encode_varint(v) for v in entry)
    return b"".join(parts)


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
