"""Pipe protocol between the dispatcher and shard workers.

Messages are plain tuples sent over ``multiprocessing.Connection``
(pickle-framed).  The dispatcher speaks first; a worker only ever
replies.  Since protocol version 2 every command/reply pair carries a
dispatcher-assigned **request id**: the supervisor retries a scatter
whose deadline expired, and the id is what lets it discard the original
(late) reply instead of mistaking it for the retry's answer.

Dispatcher -> worker::

    ("run", request_id, {"version": PROTOCOL_VERSION,
                         "warm": bool,
                         "entries": [(seq, part_idx, Request), ...]})
    ("shutdown",)

Worker -> dispatcher::

    ("ok", request_id, {"version": PROTOCOL_VERSION,
                        "results": [(seq, part_idx, packed_result), ...],
                        "io": DiskStats,
                        "simulated_io_ms": float,
                        "wall_time_s": float,
                        "worker_wall_s": float,
                        "regions_computed": int,
                        "regions_reused": int})
    ("error", request_id, traceback_string)

A worker hosts exactly one routing group, so a command carries that
group's one entries list and a reply is that one sub-batch's body
(since protocol version 4; version 3 wrapped both in ``{shard_id: ...}``
maps).

``seq`` is the request's position in the dispatcher's batch; ``part_idx``
numbers the per-location s-query parts of a cross-group ``*_each``
m-query (``0`` for whole requests).  A reply's ``request_id`` echoes the command
it answers (``-1`` when the worker could not even parse the command).

:func:`parse_command` and :func:`parse_reply` are the validation
chokepoints: both sides run every received frame through them and treat
:class:`ProtocolError` as a malformed peer — the worker answers
``MSG_ERROR``, the dispatcher's supervisor counts a failed attempt and
respawns (a corrupt frame means the pipe can no longer be trusted).

Query results dominate reply size, so :func:`pack_result` flattens each
one to ``(ints, probability_values, start_segments, cost)``: every
integer set/dict field (segments, probability keys, the maximum
bounding region's cover) in one counted ``int64`` array, the probability
values in one ``float64`` array — pickle ships two buffers per result
instead of per-element objects — and :func:`unpack_result` restores an
equal :class:`~repro.core.query.QueryResult` on the parent side from bulk
``tolist()`` conversions.  Protocol version 3 introduced this layout;
version 5 dropped the regions' seed claims from it and version 6 the
minimum region and the region boundary.
``QueryCost``/``DiskStats`` are small flat dataclasses and travel as-is.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.query import BoundingRegion, QueryResult

#: Bumped whenever the frame layout changes; both sides verify it so a
#: stale worker (or a dispatcher driving one) fails loudly instead of
#: misreading pickled tuples.
PROTOCOL_VERSION = 6

MSG_RUN = "run"
MSG_SHUTDOWN = "shutdown"
MSG_OK = "ok"
MSG_ERROR = "error"


class ProtocolError(RuntimeError):
    """A frame that does not follow the pipe protocol."""


def parse_command(frame: object) -> Tuple[str, int, Optional[Dict[str, Any]]]:
    """Validate a dispatcher->worker frame.

    Returns ``(kind, request_id, body)``; ``MSG_SHUTDOWN`` has no id or
    body (``(kind, -1, None)``).  Raises :class:`ProtocolError` on
    malformed frames and on a protocol-version mismatch.
    """
    if not isinstance(frame, tuple) or not frame:
        raise ProtocolError(f"command frame is not a tuple: {frame!r}")
    kind = frame[0]
    if not isinstance(kind, str):
        raise ProtocolError(f"command kind is not a string: {kind!r}")
    if kind == MSG_SHUTDOWN:
        return kind, -1, None
    if len(frame) != 3:
        raise ProtocolError(
            f"command frame {kind!r} has {len(frame)} elements, want 3"
        )
    request_id, body = frame[1], frame[2]
    if not isinstance(request_id, int):
        raise ProtocolError(f"request id is not an int: {request_id!r}")
    if not isinstance(body, dict):
        raise ProtocolError(f"command body is not a dict: {type(body).__name__}")
    version = body.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    return kind, request_id, body


def parse_reply(frame: object) -> Tuple[str, int, Any]:
    """Validate a worker->dispatcher frame.

    Returns ``(kind, request_id, body)`` where ``body`` is the
    sub-batch reply body for ``MSG_OK`` and the traceback string for ``MSG_ERROR``.
    Raises :class:`ProtocolError` on anything else.
    """
    if not isinstance(frame, tuple) or len(frame) != 3:
        raise ProtocolError(f"reply frame is not a 3-tuple: {frame!r}")
    kind, request_id, body = frame
    if not isinstance(kind, str):
        raise ProtocolError(f"reply kind is not a string: {kind!r}")
    if not isinstance(request_id, int):
        raise ProtocolError(f"reply request id is not an int: {request_id!r}")
    if kind == MSG_OK:
        if not isinstance(body, dict):
            raise ProtocolError(
                f"ok body is not a dict: {type(body).__name__}"
            )
        version = body.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: worker speaks {version!r}, "
                f"dispatcher speaks {PROTOCOL_VERSION}"
            )
        if not isinstance(body.get("results"), list):
            raise ProtocolError("ok body has no results list")
    elif kind == MSG_ERROR:
        if not isinstance(body, str):
            raise ProtocolError(
                f"error body is not a string: {type(body).__name__}"
            )
    else:
        raise ProtocolError(f"unknown reply kind {kind!r}")
    return kind, request_id, body


#: ``ints`` header of a packed result: whether the max region exists,
#: then the length of each of the three integer columns.
_HEADER = 4


def pack_result(result: QueryResult) -> tuple:
    """Flatten a :class:`QueryResult` for cheap cross-process pickling.

    Every integer field goes into one ``int64`` array (the header, then
    segments, probability keys and the max region's cover), the
    probability values into one ``float64`` array: pickle ships two
    buffers per result, not objects per element.
    """
    probabilities, region = result.probabilities, result.max_region
    columns = (result.segments, probabilities.keys(), () if region is None else region.cover)
    header = [region is not None, *map(len, columns)]
    ints = np.fromiter(
        chain(header, *columns), dtype=np.int64, count=_HEADER + sum(header[1:])
    )
    values = np.fromiter(
        probabilities.values(), dtype=np.float64, count=len(probabilities)
    )
    return ints, values, result.start_segments, result.cost


def unpack_result(packed: tuple) -> QueryResult:
    """Inverse of :func:`pack_result`: plain ``int``/``float`` keys and
    values, built from ``tolist()`` in bulk."""
    ints, values, starts, cost = packed
    flat = ints.tolist()
    columns, at = [], _HEADER
    for length in flat[1:_HEADER]:
        columns.append(flat[at : at + length])
        at += length
    segments, keys, cover = columns
    return QueryResult(
        segments=set(segments),
        probabilities=dict(zip(keys, values.tolist())),
        start_segments=tuple(starts),
        max_region=BoundingRegion(set(cover)) if flat[0] else None,
        cost=cost,
    )
