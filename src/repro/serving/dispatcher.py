"""Scatter-gather dispatch over supervised replica worker processes.

:class:`ShardedEngine` is the multi-process counterpart of
:meth:`repro.api.ReachabilityClient.run_batch`: it splits the road
network into K routing groups once (construction), names one saved
store bundle (the engine's own while it is current, else one private
save), spawns one worker process per group that opens it read-only as
a full replica, and answers each batch by scattering every
group's sub-requests to its worker, running foreign-Δt requests
locally, and gathering and merging the replies into one classic
:class:`~repro.core.service.BatchReport`.

Routing: a request belongs to the group that **owns its start segment**
(resolved in one vectorized pass by the ST-Index's
:class:`~repro.network.locator.SegmentLocator` — no I/O).  A worker
answers its group's sub-batch as one cold window and one lock-step run,
so nearby requests share pool pages.  Groups and processes are one
number: a worker hosting two groups would pay two cold windows for no
gain in parallelism.
An m-query whose locations lie in several groups is split only where
the split is exact: a ``*_each`` route (``sqmb_tbs_each`` / ``es_each``)
answers as one independent s-query per distinct location, so each
location ships to its own group's worker as that s-query (joining its
lock-step run) and the merge replays the route's union.  Any other
m-query runs whole on the worker owning most of its locations: MQMB's
trace-back values each segment of the unified bound by its best seed,
so parts, each knowing only its own seeds, would report other answers.
Sharded answers therefore equal the single-process engine's on every
layout.  A replica holds the ST-Index at one Δt, so a request at any
other Δt falls back to the dispatcher's own single-process service.

Failure semantics (the supervisor): the bundle outlives every worker,
so a worker is a *replaceable* process.  Each scatter is
an **attempt** with a fresh protocol request id and a deadline
(``deadline_ms``); the gather loop waits with that deadline
(:meth:`ShardedEngine._poll_workers` is the single blocking chokepoint —
lint rule RL010), and an attempt that dies (EOF on the pipe), times out,
answers ``MSG_ERROR``, or sends a corrupt frame is **retried** with
exponential backoff up to ``max_retries`` times — on a freshly respawned
worker when the process is gone or untrusted, on the same worker when it
is merely slow (a late reply is then discarded by request id, never
mismatched).  A sub-batch that exhausts its retries **degrades**: it
re-executes on the dispatcher-local fallback service, so ``run_batch``
still returns a complete report and one lost process costs one
redispatch, not the batch.  Worker, degraded and foreign-Δt
sub-batches all run through :func:`repro.serving.worker.run_sub_batch`,
so every reply the merge sees has one shape.

Accounting: a worker reports its group's exact
:class:`~repro.storage.disk.DiskStats` window; ``report.io`` is the sum
of those windows plus the dispatcher-local fallback window (foreign-Δt
*and* degraded sub-batches), so the sharded report aggregates
**exactly** — the group windows add up to what a single-process engine
charges for the same sub-batches, faults or not.  A failed
attempt reports no window at all (whatever pages the doomed worker
touched died with its process), which is what keeps degraded
accounting exact.  The fault counters (``worker_restarts``, ``retries``,
``degraded_requests``, ``stale_frames``) aggregate onto the report the
same way the windows do.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection

from repro.api.client import prepare_batch, resolve_delta_t
from repro.api.envelope import Request, as_request
from repro.api.router import ROUTER
from repro.core.engine import ReachabilityEngine
from repro.core.planner import plan_query  # noqa: F401 - resolved by name from outside (docs/architecture.md)
from repro.core.query import MQuery, QueryCost, QueryResult
from repro.core.service import (
    BatchReport,
    QueryService,
    ShardReport,
    as_service,
)
from repro.serving.faults import FaultPlan, validate_plan
from repro.serving.partition import (
    PartitionPlan,
    export_shard_payload,
    partition_network,
)
from repro.serving.protocol import (
    MSG_ERROR,
    MSG_OK,
    MSG_RUN,
    MSG_SHUTDOWN,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_reply,
    unpack_result,
)
from repro.serving.worker import run_sub_batch, shard_worker_main

#: Default per-scatter deadline.  Generous: the fig-4.8 workloads answer
#: whole batches in well under a second, so 30 s only ever fires on a
#: genuinely wedged worker, not a slow one.
DEFAULT_DEADLINE_MS = 30_000.0

#: Default bounded-retry limit per scatter (initial attempt excluded).
DEFAULT_MAX_RETRIES = 2

#: Reply-map key of the dispatcher-local foreign-Δt sub-batch; group ids
#: are non-negative, so it never collides with one.
_LOCAL_KEY = -1

#: The m-query routes answered as one independent s-query per distinct
#: location, and that s-query's algorithm: the only m-queries whose
#: per-group parts merge back to the single-process answer.
_EACH_PART = {"sqmb_tbs_each": "sqmb_tbs", "es_each": "es"}

#: Base for exponential retry backoff (seconds); attempt ``n`` sleeps
#: ``RETRY_BACKOFF_S * 2**(n-1)`` before redispatching.  Only the failure
#: path ever sleeps.
RETRY_BACKOFF_S = 0.05


class ShardedEngineClosedError(RuntimeError):
    """A batch was submitted to a :class:`ShardedEngine` after ``close``.

    Subclasses :class:`RuntimeError` so pre-existing callers catching
    the old bare error keep working.
    """


@dataclass
class DispatchPlan:
    """How one batch splits across routing groups.

    Attributes:
        per_shard: ``shard_id -> [(seq, part_idx, Request), ...]`` — the
            sub-requests each group's worker executes, in submission
            order.
        fallback: ``[(seq, Request), ...]`` answered dispatcher-locally
            (a foreign Δt).
        decomposed: the ``seq`` of every cross-group ``*_each`` m-query,
            shipped as per-location s-query parts that need merging.
    """

    per_shard: dict[int, list[tuple[int, int, Request]]] = field(
        default_factory=dict
    )
    fallback: list[tuple[int, Request]] = field(default_factory=list)
    decomposed: set[int] = field(default_factory=set)

    @property
    def num_sub_requests(self) -> int:
        return sum(len(entries) for entries in self.per_shard.values())


@dataclass
class _WorkerHandle:
    """One live worker process plus its pipe and incarnation number."""

    process: object
    conn: object
    incarnation: int = 0


@dataclass
class _Attempt:
    """One in-flight scatter to one worker."""

    request_id: int
    entries: list
    attempt: int  # 0 = initial dispatch, 1.. = retries
    deadline_at: float | None  # monotonic seconds, None = no deadline


@dataclass
class _FaultStats:
    """Per-batch supervision counters by worker, merged onto the report."""

    restarts: Counter = field(default_factory=Counter)
    retries: Counter = field(default_factory=Counter)
    stale_frames: int = 0


def _merge_parts(results: list[QueryResult]) -> QueryResult:
    """Union the per-location parts of a decomposed ``*_each`` m-query as
    :func:`~repro.core.executors.sqmb_tbs.execute_each` unions them: a
    later location's probability overwrites an earlier one's, start
    segments dedup in location order, and no bounding region survives."""
    merged = QueryResult()
    starts: list[int] = []
    for result in results:
        merged.segments |= result.segments
        merged.probabilities.update(result.probabilities)
        starts.extend(result.start_segments)
    merged.start_segments = tuple(dict.fromkeys(starts))
    merged.cost = QueryCost.merged(r.cost for r in results)
    return merged


class ShardedEngine:
    """Multi-process batch execution over full engine replicas.

    Args:
        target: the single-process service or engine to replicate.  Build
            it **fresh** (indexes built, no queries run) so the replicas'
            disk geometry matches a from-scratch engine.
        shards: number K of spatial routing groups, and of worker
            processes: worker ``i`` hosts group ``i`` on its one replica
            (at most one group per road segment).
        delta_t_s: index granularity the replicas serve (default: the
            service's).  Requests at any other Δt fall back.
        deadline_ms: per-scatter reply deadline; an attempt that exceeds
            it is retried (``None`` disables deadlines — the gather then
            blocks until the worker answers or dies).
        max_retries: redispatch attempts per scatter after the initial
            one; a sub-batch that exhausts them degrades to the local
            fallback service.
        fault_plan: deterministic fault injection for tests (see
            :mod:`repro.serving.faults`).
    """

    def __init__(
        self,
        target: QueryService | ReachabilityEngine,
        shards: int = 4,
        delta_t_s: int | None = None,
        deadline_ms: float | None = DEFAULT_DEADLINE_MS,
        max_retries: int = DEFAULT_MAX_RETRIES,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        # `closed` (set by close(), explicit or on a data change) first: a
        # partially constructed engine must survive __del__ -> close()
        # without AttributeError noise at GC time.
        self.closed = False
        self._workers: dict[int, _WorkerHandle] = {}
        self._private: tempfile.TemporaryDirectory | None = None
        self.service = as_service(target)
        self.engine = self.service.engine
        self.delta_t_s = (
            delta_t_s if delta_t_s is not None else self.service.delta_t_s
        )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self._st_index = self.engine.st_index(self.delta_t_s)
        self.plan: PartitionPlan = partition_network(
            self.engine.network, shards, weights=self._load_weights()
        )
        validate_plan(fault_plan, self.plan.num_shards)
        # The supervisor's respawn substrate: the bundle the workers open
        # lives as long as this engine, so a dead process is replaceable
        # at any point between or during batches.  A private save of it
        # lives in this directory until close().
        self._private = tempfile.TemporaryDirectory(prefix="repro-replica-")
        self._ctx = multiprocessing.get_context("spawn")
        self._next_request_id = 0
        try:
            self._payload = export_shard_payload(
                self.engine, self.delta_t_s, self._private.name
            )
            for worker_idx in range(self.plan.num_shards):
                self._workers[worker_idx] = self._spawn_worker(worker_idx, 0)
        except BaseException:
            self.close()
            raise
        # The replicas are a snapshot of the time lists too: after any
        # append they are stale, so the workers retire rather than answer
        # from them (the client re-partitions on its next sharded batch).
        self.engine.register_data_change_hook(self.close, every_append=True)

    def _load_weights(self):
        """Per-CSR-row trajectory-visit volume, the partition's load proxy.

        Query traffic follows data density (queries in the empty
        periphery answer trivially), so balancing group boundaries by
        time-list bytes instead of segment counts evens out the *work*
        each routing group receives.  The +1 floor keeps zero-data rows
        weighted, so the periphery still spreads across groups.
        """
        import numpy as np

        csr = self.engine.network.csr()
        segment, volume = self._st_index.committed_directory().record_bytes()
        rows = np.minimum(np.searchsorted(csr.ids, segment), csr.n - 1)
        known = csr.ids[rows] == segment
        return 1.0 + np.bincount(rows[known], weights=volume[known], minlength=csr.n)

    # -- supervision -------------------------------------------------------

    def _spawn_worker(self, worker_idx: int, incarnation: int) -> _WorkerHandle:
        """Start one worker process opening the replica."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(
                child_conn,
                self._payload,
                worker_idx,
                incarnation,
                self.fault_plan,
            ),
            daemon=True,
            name=f"reach-shard-worker-{worker_idx}.{incarnation}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn, incarnation)

    def _retire_worker(self, handle: _WorkerHandle) -> None:
        """Tear one worker down without touching engine state."""
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5)
        if handle.process.is_alive():  # pragma: no cover - unkillable child
            handle.process.kill()
            handle.process.join(timeout=5)

    def _respawn_worker(
        self, worker_idx: int, stats: _FaultStats
    ) -> _WorkerHandle:
        """Replace a dead/untrusted worker with a fresh incarnation."""
        old = self._workers[worker_idx]
        self._retire_worker(old)
        handle = self._spawn_worker(worker_idx, old.incarnation + 1)
        self._workers[worker_idx] = handle
        stats.restarts[worker_idx] += 1
        return handle

    def _ensure_worker(
        self, worker_idx: int, stats: _FaultStats
    ) -> _WorkerHandle:
        """The liveness check: respawn transparently if the process died."""
        handle = self._workers[worker_idx]
        if not handle.process.is_alive():
            handle = self._respawn_worker(worker_idx, stats)
        return handle

    def _dispatch_attempt(
        self,
        worker_idx: int,
        entries: list,
        attempt: int,
        warm: bool,
        outstanding: dict[int, _Attempt],
        stats: _FaultStats,
    ) -> None:
        """Send one scatter attempt; opens its deadline window."""
        handle = self._ensure_worker(worker_idx, stats)
        request_id = self._next_request_id
        self._next_request_id += 1
        body = {"version": PROTOCOL_VERSION, "warm": warm, "entries": entries}
        try:
            handle.conn.send((MSG_RUN, request_id, body))
        except (BrokenPipeError, OSError):
            # Died between the liveness check and the send; one fresh
            # incarnation gets the frame (a new pipe cannot be broken).
            handle = self._respawn_worker(worker_idx, stats)
            handle.conn.send((MSG_RUN, request_id, body))
        deadline_at = (
            time.monotonic() + self.deadline_ms / 1e3
            if self.deadline_ms is not None
            else None
        )
        outstanding[worker_idx] = _Attempt(
            request_id=request_id,
            entries=entries,
            attempt=attempt,
            deadline_at=deadline_at,
        )

    # The gather side's single blocking wait.  Everything the supervisor
    # learns about worker health flows through here: readable frames,
    # EOF/OSError death, and (by returning empty-handed) deadline expiry.
    # repro-lint: deadline-wait
    def _poll_workers(
        self, worker_idxs: list[int], timeout_s: float | None
    ) -> list[tuple[int, object, Exception | None]]:
        """Wait for replies with a deadline; never blocks past it.

        Returns ``(worker_idx, frame, failure)`` triples for every
        connection that became ready — ``failure`` is the ``EOFError``/
        ``OSError`` when the pipe is dead, else ``frame`` holds one
        received object.  An empty list means the timeout elapsed.
        """
        conn_of = {id(self._workers[w].conn): w for w in worker_idxs}
        ready = mp_connection.wait(
            [self._workers[w].conn for w in worker_idxs], timeout_s
        )
        events: list[tuple[int, object, Exception | None]] = []
        for conn in ready:
            worker_idx = conn_of[id(conn)]
            try:
                events.append((worker_idx, conn.recv(), None))
            except (EOFError, OSError) as exc:
                events.append((worker_idx, None, exc))
        return events

    def _attempt_failed(
        self,
        worker_idx: int,
        reason: str,
        outstanding: dict[int, _Attempt],
        degraded: dict[int, list],
        stats: _FaultStats,
        warm: bool,
    ) -> None:
        """Retry (with backoff) or, when retries are exhausted, degrade.

        ``reason`` decides whether the worker process is still trusted:
        ``died``/``corrupt`` respawn before any retry, ``timeout``
        retries the same (possibly just slow) worker and only replaces
        it on exhaustion, ``error`` keeps the worker (it answered
        coherently — the failure was in the request's execution).
        """
        failed = outstanding.pop(worker_idx)
        if reason in ("died", "corrupt"):
            self._respawn_worker(worker_idx, stats)
        if failed.attempt >= self.max_retries:
            if reason == "timeout":
                # A worker that ate the full retry budget without ever
                # answering is wedged; replace it so the *next* batch
                # starts clean (its late frames die with the old pipe).
                self._respawn_worker(worker_idx, stats)
            degraded[worker_idx] = failed.entries
            return
        stats.retries[worker_idx] += 1
        time.sleep(RETRY_BACKOFF_S * (2 ** failed.attempt))
        self._dispatch_attempt(
            worker_idx, failed.entries, failed.attempt + 1, warm,
            outstanding, stats,
        )

    def _gather(
        self,
        outstanding: dict[int, _Attempt],
        warm: bool,
        stats: _FaultStats,
    ) -> tuple[dict[int, dict], dict[int, list]]:
        """Collect every attempt's reply, retrying/degrading as needed:
        ``shard_id -> reply body``, and ``shard_id -> entries`` of the
        sub-batches that exhausted their retries (in failure order)."""
        replies: dict[int, dict] = {}
        degraded: dict[int, list] = {}
        while outstanding:
            now = time.monotonic()
            deadlines = [
                a.deadline_at
                for a in outstanding.values()
                if a.deadline_at is not None
            ]
            timeout_s = (
                max(0.0, min(deadlines) - now) if deadlines else None
            )
            events = self._poll_workers(sorted(outstanding), timeout_s)
            for worker_idx, frame, failure in events:
                attempt = outstanding.get(worker_idx)
                if attempt is None:  # resolved earlier in this wave
                    continue
                if failure is not None:
                    self._attempt_failed(
                        worker_idx, "died", outstanding, degraded, stats, warm
                    )
                    continue
                try:
                    kind, request_id, body = parse_reply(frame)
                except ProtocolError:
                    self._attempt_failed(
                        worker_idx, "corrupt", outstanding, degraded, stats,
                        warm,
                    )
                    continue
                if request_id != attempt.request_id:
                    # A reply to an attempt whose deadline already fired:
                    # drop it — the retry's answer is the only one merged.
                    stats.stale_frames += 1
                    continue
                if kind == MSG_ERROR:
                    self._attempt_failed(
                        worker_idx, "error", outstanding, degraded, stats,
                        warm,
                    )
                elif kind == MSG_OK:
                    replies[worker_idx] = body
                    outstanding.pop(worker_idx)
            # Deadline sweep: anything still outstanding past its
            # deadline is retried (same worker — a late frame is handled
            # by the request-id discard above) or degraded.
            now = time.monotonic()
            for worker_idx in list(outstanding):
                attempt = outstanding[worker_idx]
                if attempt.deadline_at is not None and now >= attempt.deadline_at:
                    self._attempt_failed(
                        worker_idx, "timeout", outstanding, degraded, stats,
                        warm,
                    )
        return replies, degraded

    # -- routing -----------------------------------------------------------

    def plan_dispatch(self, requests: list[Request]) -> DispatchPlan:
        """Split a batch into per-group sub-requests plus fallbacks."""
        dispatch = DispatchPlan(
            per_shard={spec.shard_id: [] for spec in self.plan.shards}
        )
        # One vectorized in-memory pass resolves every location's start
        # segment (no I/O, so nothing is double-charged); the replica's
        # exact lookup resolves the same one when it executes.
        spans: list[tuple[int, int] | None] = []
        locations: list = []
        for request in requests:
            if resolve_delta_t(request, self.service) != self.delta_t_s:
                spans.append(None)
                continue
            query = request.query
            locs = (
                query.locations
                if isinstance(query, MQuery)
                else (query.location,)
            )
            spans.append((len(locations), len(locs)))
            locations.extend(locs)
        starts = self._st_index.locator.locate(locations) if locations else []
        owner_flat = [self.plan.owner_of[int(sid)] for sid in starts]
        for seq, (request, span) in enumerate(zip(requests, spans)):
            if span is None:
                dispatch.fallback.append((seq, request))
                continue
            first, count = span
            owners = owner_flat[first : first + count]
            part_algorithm = None
            if len(set(owners)) > 1:
                part_algorithm = _EACH_PART.get(
                    ROUTER.route(request, self.delta_t_s).algorithm
                )
            if part_algorithm is None:
                # Whole, on the group owning most of its locations (the
                # first such on a tie): its window holds most of its pages.
                owner = max(owners, key=owners.count)
                dispatch.per_shard[owner].append((seq, 0, request))
                continue
            dispatch.decomposed.add(seq)
            options = replace(request.options, algorithm=part_algorithm)
            parts = dict.fromkeys(zip(request.query.as_s_queries(), owners))
            for part_idx, (part, owner) in enumerate(parts):
                dispatch.per_shard[owner].append(
                    (seq, part_idx, Request(part, options))
                )
        return dispatch

    # -- execution ---------------------------------------------------------

    def run_batch(
        self, requests, warm: bool = False
    ) -> BatchReport:
        """Scatter a batch across the workers and merge the replies.

        Args:
            requests: :class:`Request` envelopes or bare queries.
            warm: keep the workers' (and the fallback service's) buffer
                pools from previous batches.

        Returns:
            A :class:`BatchReport` whose ``results``/``plans``/``routes``
            are in submission order and whose ``io`` equals the sum of
            the per-group windows (``shard_reports``) plus any
            dispatcher-local fallback window — degraded sub-batches
            included, since they execute *as* fallback windows.

        Raises:
            ShardedEngineClosedError: the engine was closed — explicitly,
                or because the data its replicas were exported from
                changed (``append_trajectories`` / ``drop_indexes``).
        """
        if self.closed:
            raise ShardedEngineClosedError(
                "ShardedEngine is closed; build a new one to keep serving"
            )
        requests = [as_request(r) for r in requests]
        report = BatchReport()
        report.deadline_ms = self.deadline_ms
        if not requests:
            return report
        started = time.perf_counter()
        dispatch = self.plan_dispatch(requests)
        # Plans and routing decisions are dispatcher-side bookkeeping.  A
        # request that cannot be planned raises here, before anything is
        # scattered, so no reply can be left in a pipe.
        prepare_batch(self.service, requests, report)

        # Scatter: one attempt per group's worker, each with a deadline
        # and a fresh request id.
        stats = _FaultStats()
        outstanding: dict[int, _Attempt] = {}
        replies: dict[int, dict] = {}
        for shard_id, entries in dispatch.per_shard.items():
            if entries:
                self._dispatch_attempt(
                    shard_id, entries, 0, warm, outstanding, stats
                )
        # Foreign-Δt requests run locally while the workers crunch; their
        # reply body joins the group replies under a non-group key.
        if dispatch.fallback:
            try:
                replies[_LOCAL_KEY] = run_sub_batch(
                    self.service,
                    [(seq, 0, request) for seq, request in dispatch.fallback],
                    warm,
                )
            except Exception:
                # The workers still crunching for this batch are replaced:
                # their replies die with the old pipes.
                for worker_idx in outstanding:
                    self._respawn_worker(worker_idx, stats)
                raise

        # Gather under supervision: deadlines, retries, respawns.
        gathered, degraded = self._gather(outstanding, warm, stats)
        replies.update(gathered)

        # Graceful degradation: sub-batches that exhausted their retries
        # re-execute on the local fallback service, so the batch still
        # completes with full results and exact accounting.
        for shard_id, entries in degraded.items():
            replies[shard_id] = run_sub_batch(self.service, entries, warm)

        # Merge.
        parts: dict[int, list[tuple[int, QueryResult]]] = {}
        for body in replies.values():
            for seq, part_idx, packed in body["results"]:
                parts.setdefault(seq, []).append(
                    (part_idx, unpack_result(packed))
                )
        results_by_seq: dict[int, QueryResult] = {}
        for seq, pieces in parts.items():
            pieces.sort(key=lambda item: item[0])
            results = [result for _, result in pieces]
            if seq in dispatch.decomposed:
                results_by_seq[seq] = _merge_parts(results)
            else:
                results_by_seq[seq] = results[0]

        report.results = [results_by_seq[seq] for seq in range(len(requests))]
        for shard_id in sorted(replies):
            body = replies[shard_id]
            report.io = report.io + body["io"]
            report.simulated_io_ms += body["simulated_io_ms"]
            report.regions_computed += body["regions_computed"]
            report.regions_reused += body["regions_reused"]
            if shard_id == _LOCAL_KEY:
                continue
            report.shard_reports.append(
                ShardReport(
                    shard_id=shard_id,
                    queries=len(body["results"]),
                    io=body["io"],
                    simulated_io_ms=body["simulated_io_ms"],
                    wall_time_s=body["wall_time_s"],
                    worker_wall_s=body["worker_wall_s"],
                    worker_restarts=stats.restarts[shard_id],
                    retries=stats.retries[shard_id],
                    degraded_requests=len(degraded.get(shard_id, ())),
                )
            )
        report.degraded_requests = sum(map(len, degraded.values()))
        report.worker_restarts = stats.restarts.total()
        report.retries = stats.retries.total()
        report.stale_frames = stats.stale_frames
        report.wall_time_s = time.perf_counter() - started
        return report

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down and remove a private bundle.

        Idempotent and dead-worker-safe: a worker that already died (or
        whose pipe is gone) is skipped past the handshake and still
        joined/killed, so close never raises on a degraded engine.
        """
        if getattr(self, "closed", True):
            return
        self.closed = True
        for handle in self._workers.values():
            try:
                handle.conn.send((MSG_SHUTDOWN,))
            except (BrokenPipeError, OSError, ValueError):
                pass  # dead worker or closed pipe: join/kill below
        for handle in self._workers.values():
            try:
                handle.conn.close()
            except OSError:
                pass
        for handle in self._workers.values():
            handle.process.join(timeout=10)
            if handle.process.is_alive():  # pragma: no cover - hung worker
                handle.process.terminate()
                handle.process.join(timeout=5)
        if self._private is not None:
            self._private.cleanup()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        # Never raise during interpreter shutdown: attributes may be
        # missing (failed __init__) or modules already torn down.
        try:
            if getattr(self, "closed", True):
                return
            self.close()
        except Exception:
            pass
