"""The unified client: one front door for every query, batch or stream.

:class:`ReachabilityClient` is the only way to ask a question — one
request/response surface:

* :meth:`~ReachabilityClient.send` — answer one
  :class:`~repro.api.envelope.Request` synchronously (through the
  service-lifetime bounding-region cache);
* :meth:`~ReachabilityClient.stream` — run many requests as one lazily
  executed pipeline, yielding :class:`~repro.api.envelope.Response`
  objects in submission order;
* :meth:`~ReachabilityClient.run_batch` — a thin aggregation over the
  same streaming pipeline, returning a
  :class:`~repro.core.service.BatchReport`.

Each entry point holds the engine's one lock
(:attr:`~repro.core.engine.ReachabilityEngine.lock`) while it executes —
``run_batch`` for the whole batch, a stream per pull — so callers on many
threads take turns on the engine and every per-query accounting window
is that query's alone.

Every request is routed by the one :data:`~repro.api.router.ROUTER`
policy (``algorithm="auto"``) and the decision travels on the response, so a
multi-tenant workload can mix forward/reverse, s-/m-, forced and
auto-routed queries freely in one stream — per-query intent lives in the
envelope, not in batch-global kwargs.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import count
from typing import Iterable, Iterator

from repro.api.envelope import Request, Response, as_request
from repro.api.router import ROUTER, RouteDecision
from repro.core.engine import ReachabilityEngine
from repro.core.executors import ExecutionContext, execute_plan
from repro.core.executors.sqmb_tbs import LOCKSTEP, LOCKSTEP_MIN_RUN
from repro.core.explain import QueryExplanation, StageRecorder
from repro.core.planner import QueryPlan, plan_query
from repro.core.query import MQuery, SQuery
from repro.core.service import BatchReport, QueryService, as_service
from repro.storage.disk import read_io_ms


def resolve_delta_t(request: Request, service: QueryService) -> int:
    """The Δt a request runs at: its own option, else the service default."""
    delta_t_s = request.options.delta_t_s
    return delta_t_s if delta_t_s is not None else service.delta_t_s


def route_and_plan(
    service: QueryService, request: Request, warm: bool
) -> tuple[QueryPlan, RouteDecision]:
    """Route one request and freeze the plan the decision names."""
    delta_t_s = resolve_delta_t(request, service)
    decision = ROUTER.route(request, delta_t_s)
    plan = plan_query(
        decision.kind, request.query, decision.algorithm, delta_t_s, warm=warm
    )
    return plan, decision


def prepare_batch(
    service: QueryService, requests: list[Request], report: BatchReport
) -> None:
    """Route and plan a batch, filling ``report.plans`` / ``routes``.

    The one prepare step of every batch backend: each request is routed,
    and identically-shaped requests share one frozen plan object
    (``report.plans_reused`` counts the sharers).  Members always plan
    warm — the batch-level cold start is the only cache invalidation.
    """
    plan_of_shape: dict[QueryPlan, QueryPlan] = {}
    for request in requests:
        plan, decision = route_and_plan(service, request, warm=True)
        shared = plan_of_shape.setdefault(plan, plan)
        if shared is not plan:
            report.plans_reused += 1
        report.plans.append(shared)
        report.routes.append(decision)


class ReachabilityClient:
    """Request/response client over a :class:`QueryService`.

    Args:
        target: the service to answer through, or a bare engine (a
            private service is created around it).
        backend: default :meth:`run_batch` execution backend —
            ``"threaded"`` (the in-process pipeline) or ``"sharded"``
            (engine replicas on worker processes, see
            :mod:`repro.serving`).  The sharded engine spawns lazily on
            the first sharded batch and is shut down by :meth:`close`.
        shards: number of spatial routing groups for the sharded
            backend, one worker process each; a group's requests run as
            one sub-batch window on its worker's replica.
        shard_workers: a cap on that number (default ``None`` = no cap):
            the sharded backend runs ``min(shards, shard_workers)``
            groups on as many processes.  Answers do not depend on the
            group count.
        deadline_ms: per-scatter reply deadline for the sharded backend
            (default ``None`` = the engine's default; pass through to
            :class:`~repro.serving.ShardedEngine`).
        max_retries: bounded-retry limit per scatter for the sharded
            backend (default ``None`` = the engine's default).
    """

    def __init__(
        self,
        target: QueryService | ReachabilityEngine,
        backend: str = "threaded",
        shards: int = 4,
        shard_workers: int | None = None,
        deadline_ms: float | None = None,
        max_retries: int | None = None,
    ) -> None:
        if backend not in ("threaded", "sharded"):
            raise ValueError(f"unknown backend {backend!r}")
        self.service = as_service(target)
        self.backend = backend
        self.shards = shards
        self.shard_workers = shard_workers
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        # Created lazily under the engine lock.
        self._sharded = None

    # -- durable stores ----------------------------------------------------

    @classmethod
    def open(cls, path, crash_plan=None, readonly: bool = False, **kwargs):
        """Open a :func:`~repro.io.persist.save_store` bundle as a client.

        The cold-start entry point: the returned client serves queries
        immediately, faulting checksum-verified data pages in from the
        durable store on demand instead of loading everything up front.
        Extra keyword arguments go to the constructor.
        """
        from repro.io.persist import open_store

        engine = open_store(path, crash_plan=crash_plan, readonly=readonly)
        # The store's index granularity becomes the client's default Δt,
        # so un-optioned requests hit the restored index instead of
        # triggering a from-scratch build at the service default.
        delta_t_s = next(iter(engine._st_indexes), None)
        if delta_t_s is not None:
            return cls(QueryService(engine, delta_t_s=delta_t_s), **kwargs)
        return cls(engine, **kwargs)

    def save(self, path):
        """Persist this client's engine as a durable store bundle."""
        from repro.io.persist import save_store

        with self.engine.lock:
            return save_store(self.engine, path, self.delta_t_s)

    # -- conveniences ------------------------------------------------------

    @property
    def engine(self) -> ReachabilityEngine:
        return self.service.engine

    @property
    def network(self):
        return self.service.engine.network

    @property
    def delta_t_s(self) -> int:
        return self.service.delta_t_s

    # -- planning / routing ------------------------------------------------

    def route(self, request: Request | SQuery | MQuery) -> RouteDecision:
        """Classify a request without planning or executing it."""
        request = as_request(request)
        return ROUTER.route(request, resolve_delta_t(request, self.service))

    def plan(
        self, request: Request | SQuery | MQuery
    ) -> tuple[QueryPlan, RouteDecision]:
        """Route and plan one request (``EXPLAIN``-style, no execution)."""
        request = as_request(request)
        return route_and_plan(self.service, request, request.options.warm)

    # -- single requests ---------------------------------------------------

    def send(self, request: Request | SQuery | MQuery) -> Response:
        """Answer one request synchronously.

        Single sends run against cold buffer pools unless
        ``options.warm`` (the paper's per-query protocol), but still
        share the service-lifetime bounding-region cache — repeated
        identically-shaped queries reuse their bounds — unless
        ``options.reuse_regions`` is off.
        """
        return self._answer(as_request(request))

    def _answer(
        self, request: Request, recorder: StageRecorder | None = None
    ) -> Response:
        plan, decision = self.plan(request)
        with self.engine.lock:
            result, context = self.service.run_plan(
                plan, request.query, reuse_regions=request.options.reuse_regions,
                recorder=recorder,
            )
        return Response(
            request=request,
            result=result,
            plan=plan,
            route=decision,
            regions_computed=context.regions_computed,
            regions_reused=context.regions_reused,
        )

    # -- pipelines ---------------------------------------------------------

    def stream(
        self,
        requests: Iterable[Request | SQuery | MQuery],
        warm: bool = False,
    ) -> "BatchStream":
        """Run many requests as one pipeline, yielding in submission order.

        The batch pays one cold start (unless ``warm``), then every
        request runs against warm buffer pools, the shared
        bounding-region cache and one frozen plan per request shape —
        exactly :meth:`run_batch`'s sharing, delivered incrementally.
        Each run of ``LOCKSTEP_MIN_RUN`` or more consecutive bounded members
        (SQMB/MQMB/reverse + TBS; any other member cuts it) executes in lock
        step at its first member's pull — page ids recorded, then replayed
        through the pool in submission order, so costs equal serial
        execution — and is then yielded one response per pull, in order.
        Each pull holds the engine lock while it executes, so an abandoned
        stream holds nothing.

        Requests are materialized up front (planning and index
        resolution happen before the first yield); execution is lazy —
        the cold start and the accounting window open at the first
        pull.  Per-request ``warm``/``reuse_regions`` options are
        batch-managed: members run warm and share the region cache.

        Returns:
            A :class:`BatchStream` — iterate it for responses; read its
            ``report`` after exhaustion for the exact batch totals.
        """
        return BatchStream(self, [as_request(r) for r in requests], warm=warm)

    def run_batch(
        self,
        requests: Iterable[Request | SQuery | MQuery],
        warm: bool = False,
        backend: str | None = None,
    ) -> BatchReport:
        """Run requests through :meth:`stream` and aggregate the report.

        The whole batch holds the engine lock, so its report and every
        per-query cost are exactly those of running it alone.

        Args:
            backend: override the client's default backend for this
                batch — ``"sharded"`` scatters the requests across the
                replica workers (:mod:`repro.serving`) instead of the
                in-process pipeline.
        """
        resolved = backend if backend is not None else self.backend
        if resolved not in ("threaded", "sharded"):
            raise ValueError(f"unknown backend {resolved!r}")
        requests = [as_request(r) for r in requests]
        with self.engine.lock:
            if resolved == "sharded":
                return self._sharded_engine().run_batch(requests, warm=warm)
            stream = BatchStream(self, requests, warm=warm)
            for _ in stream:
                pass
            return stream.report

    def _sharded_engine(self):
        """The lazily spawned sharded backend (see :mod:`repro.serving`);
        called with the engine lock held."""
        # A data change closes the engine (its slices went stale); the
        # next batch re-partitions from current data.
        if self._sharded is None or self._sharded.closed:
            # Imported lazily: repro.serving pulls in multiprocessing
            # machinery most clients never need.
            from repro.serving import ShardedEngine

            overrides = {}
            if self.deadline_ms is not None:
                overrides["deadline_ms"] = self.deadline_ms
            if self.max_retries is not None:
                overrides["max_retries"] = self.max_retries
            shards = self.shards
            if self.shard_workers is not None:
                shards = min(shards, self.shard_workers)
            self._sharded = ShardedEngine(self.service, shards=shards, **overrides)
        return self._sharded

    # -- explanation -------------------------------------------------------

    def explain(self, request: Request | SQuery | MQuery) -> QueryExplanation:
        """Explain one request: the routing decision plus staged costs.

        This is :meth:`send` with a stage recorder attached — same route,
        same executor, same caches (``options.warm`` and
        ``options.reuse_regions`` are honoured), for every registered
        algorithm.  The :class:`Response` of that one execution rides on
        the explanation (``explanation.response``).
        """
        recorder = StageRecorder(self.engine.disk)
        response = self._answer(as_request(request), recorder)
        return QueryExplanation(
            response.plan, response.result, recorder.stages,
            route=response.route, response=response,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut any shard workers down (idempotent)."""
        with self.engine.lock:
            sharded, self._sharded = self._sharded, None
        if sharded is not None:
            sharded.close()

    def __enter__(self) -> "ReachabilityClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BatchStream(Iterator[Response]):
    """A lazily-executing request pipeline with exact batch accounting.

    Created by :meth:`ReachabilityClient.stream`.  Iterating yields
    :class:`Response` objects in submission order; after exhaustion
    :attr:`report` holds the :class:`BatchReport` that
    :meth:`ReachabilityClient.run_batch` returns — per-query results in
    submission order, batch-level page reads, simulated I/O, pool
    counters and the bounding-region dedup totals.
    """

    def __init__(
        self,
        client: ReachabilityClient,
        requests: list[Request],
        warm: bool,
    ) -> None:
        self._client = client
        self._report = BatchReport()
        self._responses: dict[int, Response] = {}
        self._finished = not requests
        self._ready: deque = deque()  # run, not yet pulled
        engine = client.engine
        # Plan everything up front; execution stays lazy.
        prepare_batch(client.service, requests, self._report)
        self._queue = deque(zip(count(), requests, self._report.plans))
        if not requests:
            return
        # Resolve indexes before the accounting window opens (index
        # construction is offline work in the paper's model), then take
        # the batch-level cold start.
        delta_ts = sorted({plan.delta_t_s for plan in self._report.plans})
        with engine.lock:
            for delta_t_s in delta_ts:
                engine.st_index(delta_t_s)
                if any(
                    plan.uses_con_index and plan.delta_t_s == delta_t_s
                    for plan in self._report.plans
                ):
                    engine.con_index(delta_t_s)
        self._contexts = {
            delta_t_s: ExecutionContext(
                engine, delta_t_s, region_cache=client.service.region_cache
            )
            for delta_t_s in delta_ts
        }
        self._cold = not warm

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> "BatchStream":
        return self

    def __next__(self) -> Response:
        engine = self._client.engine
        with engine.lock:
            if self._finished:
                raise StopIteration
            if not self._ready:
                if not self._queue:
                    self._finalize()
                    raise StopIteration
                # Each execution is its own accounting window, so what
                # callers on other threads run between two pulls is never
                # charged to this stream.
                started, before = time.perf_counter(), engine.disk.snapshot()
                try:
                    if self._cold:
                        # The batch-level cold start happens at the first
                        # pull, not at construction: execution is lazy.
                        engine.invalidate_caches()
                        self._cold = False
                    self._ready.extend(self._run_next())
                finally:
                    self._report.io += engine.disk.snapshot() - before
                    self._report.wall_time_s += time.perf_counter() - started
            response = self._ready.popleft()
            if isinstance(response, Exception):
                raise response  # a lock-step member's failure, at its own pull
            self._responses[response.sequence] = response
            return response

    def _run_next(self) -> list:
        """Run the next member, or the run of bounded members it starts in lock step."""
        run = [self._queue.popleft()]
        while self._queue and all(
            (plan.kind, plan.executor) in LOCKSTEP for _, _, plan in (run[-1], self._queue[0])
        ):
            run.append(self._queue.popleft())
        if len(run) >= LOCKSTEP_MIN_RUN:
            _, requests, plans = map(list, zip(*run))
            contexts = [self._contexts[plan.delta_t_s] for plan in plans]
            done = execute_plan(self._client.engine, plans, [r.query for r in requests], contexts)
            self._queue.extendleft(reversed(run[len(done) :]))
            return [
                Response(request, out[0], plan, self._report.routes[sequence], sequence,
                         regions_computed=out[1], regions_reused=out[2])
                if isinstance(out, tuple) else out
                for (sequence, request, plan), out in zip(run, done)
            ]
        self._queue.extendleft(reversed(run[1:]))
        sequence, request, plan = run[0]
        context = self._contexts[plan.delta_t_s]
        computed, reused = context.regions_computed, context.regions_reused
        response = self._execute(sequence, request, plan)
        response.regions_computed = context.regions_computed - computed
        response.regions_reused = context.regions_reused - reused
        return [response]

    def _execute(
        self, sequence: int, request: Request, plan: QueryPlan
    ) -> Response:
        result = execute_plan(
            self._client.engine, plan, request.query,
            context=self._contexts[plan.delta_t_s],
        )
        return Response(
            request=request,
            result=result,
            plan=plan,
            route=self._report.routes[sequence],
            sequence=sequence,
        )

    # -- accounting --------------------------------------------------------

    def _finalize(self) -> None:
        self._finished = True
        report = self._report
        report.simulated_io_ms = read_io_ms(report.io.page_reads)
        report.regions_computed = sum(
            context.regions_computed for context in self._contexts.values()
        )
        report.regions_reused = sum(
            context.regions_reused for context in self._contexts.values()
        )
        report.results = [
            self._responses[sequence].result
            for sequence in sorted(self._responses)
        ]

    @property
    def report(self) -> BatchReport:
        """The batch totals; exact once the stream is exhausted."""
        return self._report

    @property
    def responses(self) -> list[Response]:
        """Responses received so far, in submission order."""
        return [self._responses[s] for s in sorted(self._responses)]


def as_client(
    target: "ReachabilityClient | QueryService | ReachabilityEngine",
) -> ReachabilityClient:
    """Adapt a service or engine to a client (call sites accept any)."""
    if isinstance(target, ReachabilityClient):
        return target
    return ReachabilityClient(target)
