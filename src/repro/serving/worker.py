"""Replica worker process: open the engine, serve sub-batches over a pipe.

One worker process holds one full engine replica: a read-only
:func:`~repro.io.persist.open_store` of the bundle its
:class:`~repro.serving.partition.ShardPayload` names.  The open reads the
network, the speed model, the directory and the disk's metadata, and no
data page: a page is faulted in, checksum-verified, on its first read,
so a worker's memory grows only with the pages its queries touch.  The
Con-Index is never on the disk — it derives entirely from the speed model
plus the network topology, so the worker builds it lazily in memory
exactly as a single-process engine would, and a query writes no page.

A worker hosts exactly one routing group.  A ``("run", request_id,
...)`` message carries that group's sub-batch of the dispatcher's
batch, and the replica answers it with one ``run_batch`` — one cold
window, one lock-step run — through its one long-lived
:class:`~repro.core.service.QueryService`, built next to the engine,
exactly as ``batch_hot``'s long-lived client serves its batches.  Its
region cache outlives batches; the buffer pools take each batch's cold
start (``warm=False`` invalidates pools, never regions), and a data
change retires the whole worker, so a cached region is never stale.
Every engine runs one thread at a time, and the process fan-out is the
parallelism.

Failure semantics: every command is handled in per-message isolation —
a malformed frame, a version mismatch, or an exception inside
:func:`run_sub_batch` answers ``(MSG_ERROR, request_id, traceback)`` and the
loop keeps serving.  The worker itself never initiates; only process
death (observed by the dispatcher's supervisor as EOF on the pipe) takes
it out of rotation.  A :class:`~repro.serving.faults.FaultPlan` threads
deterministic failures through the loop's two hooks (``RECV`` before
every pipe ``recv``, ``RUN`` per ``run`` command, each one
:meth:`~repro.injection.Injector.fire`) so every one of those paths is
reproducible in tests.
"""

from __future__ import annotations

import os
import traceback
from time import perf_counter

from repro.api.client import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.core.service import QueryService
from repro.io.persist import open_store
from repro.injection import Injector
from repro.serving.faults import (
    CORRUPT_FRAME,
    DELAY_RESPONSE,
    DROP_FRAME,
    FAULT_EXIT_CODE,
    KILL_IN_RUN,
    RAISE_IN_SERVE,
    RECV,
    RUN,
    FaultInjected,
    FaultPlan,
)
from repro.serving.partition import ShardPayload
from repro.serving.protocol import (
    MSG_ERROR,
    MSG_OK,
    MSG_RUN,
    MSG_SHUTDOWN,
    PROTOCOL_VERSION,
    ProtocolError,
    pack_result,
    parse_command,
)


def build_shard_engine(payload: ShardPayload) -> ReachabilityEngine:
    """The replica engine: the payload's bundle, opened read-only.  The
    worker never writes a file, so any number of workers share one
    bundle."""
    return open_store(payload.bundle, readonly=True)


def run_sub_batch(service: QueryService, entries: list, warm: bool) -> dict:
    """Run ``[(seq, part_idx, Request)]`` as one batch on ``service``.

    The one sub-batch runner: a worker calls it once per batch for its
    group, the dispatcher for a degraded group's entries and for the
    foreign-Δt list, so every reply the merge sees is this ``MSG_OK``
    body — packed results plus the sub-batch's exact accounting window
    on the service's engine.
    """
    started = perf_counter()
    with ReachabilityClient(service) as client:
        report = client.run_batch([request for _, _, request in entries], warm=warm)
    results = [
        (seq, part_idx, pack_result(result))
        for (seq, part_idx, _), result in zip(entries, report.results)
    ]
    return {
        "results": results,
        "io": report.io,
        "simulated_io_ms": report.simulated_io_ms,
        "wall_time_s": report.wall_time_s,
        # Everything this sub-batch occupied a core for — client setup,
        # compute, result packing — excluding only the shared
        # message-level pipe codec.
        "worker_wall_s": perf_counter() - started,
        "regions_computed": report.regions_computed,
        "regions_reused": report.regions_reused,
    }


def shard_worker_main(
    conn,
    payload: ShardPayload,
    worker_idx: int = 0,
    incarnation: int = 0,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Worker-process entry point (spawn target).

    Args:
        conn: the worker's end of the dispatcher pipe.
        payload: the replica to rebuild and serve the group from.
        worker_idx: this worker's index (fault targeting + diagnostics).
        incarnation: 0 for the originally spawned process, +1 per
            supervisor respawn; fault specs select on it.
        fault_plan: deterministic failures to inject (tests only).
    """
    injector = Injector(
        fault_plan.for_worker(worker_idx, incarnation) if fault_plan is not None else ()
    )
    try:
        service = QueryService(
            build_shard_engine(payload), delta_t_s=payload.delta_t_s
        )
    except Exception:  # pragma: no cover - construction failures
        conn.send((MSG_ERROR, -1, traceback.format_exc()))
        return
    # DELAY_RESPONSE parks a computed reply here; it is flushed (late)
    # just before the *next* command's reply, after the dispatcher's
    # deadline already expired and retried — the canonical stale frame.
    deferred: list = []
    while True:
        if injector.fire(RECV):
            # KILL_BEFORE_RECV: a real crash does not unwind the stack or
            # flush pipes; os._exit is the closest deterministic stand-in.
            os._exit(FAULT_EXIT_CODE)
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        try:
            kind, request_id, body = parse_command(message)
        except ProtocolError:
            conn.send((MSG_ERROR, -1, traceback.format_exc()))
            continue
        if kind == MSG_SHUTDOWN:
            break
        if kind != MSG_RUN:
            conn.send(
                (MSG_ERROR, request_id, f"unknown message kind {kind!r}")
            )
            continue
        faults = frozenset(spec.kind for spec in injector.fire(RUN))
        if KILL_IN_RUN in faults:
            # Deterministic mid-batch death: the command is received (the
            # dispatcher has an outstanding attempt), nothing is replied.
            os._exit(FAULT_EXIT_CODE)
        for frame in deferred:
            conn.send(frame)
        deferred.clear()
        try:
            if RAISE_IN_SERVE in faults:
                raise FaultInjected("injected failure while serving a run")
            reply_body = {
                "version": PROTOCOL_VERSION,
                **run_sub_batch(service, body["entries"], body["warm"]),
            }
            if DROP_FRAME in faults:
                continue
            if CORRUPT_FRAME in faults:
                conn.send(["not", "a", "protocol", "frame"])
                continue
            if DELAY_RESPONSE in faults:
                deferred.append((MSG_OK, request_id, reply_body))
                continue
            conn.send((MSG_OK, request_id, reply_body))
        except Exception:
            conn.send((MSG_ERROR, request_id, traceback.format_exc()))
