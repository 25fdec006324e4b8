"""The cache-owning execution core under the client, and its reports.

:class:`QueryService` holds what outlives one request on one engine: the
service-lifetime bounding-region LRU
(:class:`~repro.core.region_cache.RegionCache`, invalidated when the speed
model changes or indexes are rebuilt), the default index granularity Δt,
and :meth:`QueryService.run_plan`, the one place a planned query meets
that cache.  It plans, routes and batches nothing:
:class:`repro.api.ReachabilityClient` is the front door, and its
``send`` / ``stream`` / ``run_batch`` pipelines execute through the
service they were given.

:class:`BatchReport` is what those pipelines return: per-query results
plus batch-level cost and cache-effectiveness metrics (buffer-pool hit/
miss/eviction counters from :class:`~repro.storage.disk.DiskStats`), with
one :class:`ShardReport` per routing group when the batch ran on the
sharded backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.engine import ReachabilityEngine
from repro.core.executors import ExecutionContext, execute_plan
from repro.core.planner import QueryPlan
from repro.core.query import MQuery, QueryCost, QueryResult, SQuery
from repro.core.region_cache import RegionCache
from repro.storage.disk import DiskStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.router import RouteDecision

#: LRU capacity of a service's bounding-region cache, shared across batches.
REGION_CACHE_CAPACITY = 1024


@dataclass
class ShardReport:
    """One routing group's accounting window of a sharded batch (see
    :mod:`repro.serving`).

    Attributes:
        shard_id: the group's index in the partition plan, and the
            index of the one worker process that runs it.
        queries: sub-requests the group's window executed (a cross-group
            ``*_each`` m-query counts once per location the group owns).
        io: the disk-stat difference of the group's sub-batch.
        simulated_io_ms: accounted cost of the group's page reads.
        wall_time_s: wall time of the group's sub-batch inside its worker.
        worker_wall_s: wall time of everything the worker did for this
            group — client setup, the sub-batch, result packing.
        worker_restarts: times the supervisor respawned the group's
            worker process during the batch.
        retries: scatter attempts the group's worker needed beyond the
            first (deadline expiries, deaths, error replies).
        degraded_requests: sub-requests of this group that exhausted
            their retries and re-executed on the dispatcher-local
            fallback service (the group's ``io`` window then measures
            that local re-execution, so batch accounting stays exact).
    """

    shard_id: int
    queries: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    wall_time_s: float = 0.0
    worker_wall_s: float = 0.0
    worker_restarts: int = 0
    retries: int = 0
    degraded_requests: int = 0


@dataclass
class BatchReport:
    """Outcome of one :meth:`repro.api.ReachabilityClient.run_batch` call.

    Attributes:
        results: per-query results, in submission order.
        plans: the (deduplicated, shared) plan of each query.
        wall_time_s: batch execution wall time (a stream's: the sum of
            the pulls that executed requests).
        io: batch-level disk-stat difference, including buffer-pool
            hit/miss/eviction counters.
        simulated_io_ms: accounted I/O cost of the batch's page reads.
        regions_computed: bounding regions expanded from the Con-Index.
        regions_reused: bounding regions served from the batch cache.
        plans_reused: queries that shared an earlier query's plan.
        routes: the routing decision behind each plan, in submission
            order (``rule="forced"`` for explicitly-named algorithms).
        shard_reports: per-group accounting when the batch ran on the
            sharded backend (empty for single-process batches); the
            group ``io`` windows plus any dispatcher-local fallback
            I/O sum exactly to ``io``.
        worker_restarts: worker processes the sharded supervisor
            respawned while answering this batch (0 on a healthy run
            and always on the single-process backend).
        retries: scatter attempts beyond the first, batch-wide.
        degraded_requests: sub-requests answered by the dispatcher-local
            fallback after exhausting their retries; results are
            identical to a healthy run, only provenance differs.
        stale_frames: late worker replies discarded by request id after
            their attempt's deadline had already fired.
        deadline_ms: the per-scatter deadline the batch ran under
            (``None``: no deadline / single-process backend).
    """

    results: list[QueryResult] = field(default_factory=list)
    plans: list[QueryPlan] = field(default_factory=list)
    routes: list["RouteDecision"] = field(default_factory=list)
    wall_time_s: float = 0.0
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    regions_computed: int = 0
    regions_reused: int = 0
    plans_reused: int = 0
    shard_reports: list[ShardReport] = field(default_factory=list)
    worker_restarts: int = 0
    retries: int = 0
    degraded_requests: int = 0
    stale_frames: int = 0
    deadline_ms: float | None = None

    @property
    def page_reads(self) -> int:
        return self.io.page_reads

    @property
    def total_cost_ms(self) -> float:
        """Wall time plus accounted I/O, the headline 'running time'."""
        return self.wall_time_s * 1e3 + self.simulated_io_ms

    @property
    def cost(self) -> QueryCost:
        """The per-query costs combined (:meth:`QueryCost.merged`): the
        batch-wide counter totals and maxima.  Its ``wall_time_s`` / ``io``
        sum the per-query windows; the batch's own are the fields above."""
        return QueryCost.merged(result.cost for result in self.results)

    def as_rows(self) -> list[tuple[str, str]]:
        """Key/value rows for :func:`repro.eval.tables.format_table`."""
        cost = self.cost
        return [
            ("Queries", f"{len(self.results)}"),
            ("Wall time", f"{self.wall_time_s * 1e3:.1f} ms"),
            ("Page reads", f"{self.io.page_reads:,}"),
            ("Simulated I/O", f"{self.simulated_io_ms:.0f} ms"),
            (
                "Buffer pool",
                f"{self.io.pool_hits:,} hits / {self.io.pool_misses:,} misses"
                f" / {self.io.pool_evictions:,} evictions"
                f" ({self.io.pool_hit_rate * 100:.0f}% hit rate)",
            ),
            (
                "Bounding regions",
                f"{self.regions_computed} computed, "
                f"{self.regions_reused} reused "
                f"({cost.segments_expanded:,} segments expanded)",
            ),
            (
                "Probability checks",
                f"{cost.probability_checks:,} "
                f"({cost.kernel_probability_evals:,} kernel / "
                f"{cost.scalar_probability_evals:,} scalar; "
                f"{cost.probability_waves:,} waves, "
                f"max {cost.max_wave_size})",
            ),
            (
                "Batched I/O",
                f"{cost.batched_record_reads:,} record gathers / "
                f"{cost.prefetched_pages:,} pages prefetched",
            ),
            ("Plans reused", f"{self.plans_reused}"),
        ] + (
            [
                (
                    "Fault tolerance",
                    f"{self.worker_restarts} worker restarts / "
                    f"{self.retries} retries / "
                    f"{self.degraded_requests} degraded / "
                    f"{self.stale_frames} stale frames discarded"
                    + (
                        f" (deadline {self.deadline_ms:.0f} ms)"
                        if self.deadline_ms is not None
                        else " (no deadline)"
                    ),
                )
            ]
            if self.shard_reports
            else []
        ) + [
            (
                f"Shard {shard.shard_id}",
                f"{shard.queries} queries / {shard.io.page_reads:,} page "
                f"reads / {shard.simulated_io_ms:.0f} ms simulated I/O "
                f"({shard.wall_time_s * 1e3:.1f} ms wall)"
                + (
                    f" [{shard.worker_restarts} restarts, "
                    f"{shard.retries} retries, "
                    f"{shard.degraded_requests} degraded]"
                    if shard.worker_restarts
                    or shard.retries
                    or shard.degraded_requests
                    else ""
                ),
            )
            for shard in self.shard_reports
        ]


class QueryService:
    """The service-lifetime caches over one :class:`ReachabilityEngine`.

    Args:
        engine: the index-owning engine queries run against.
        delta_t_s: default index granularity Δt for queries that do not
            specify one.
    """

    def __init__(self, engine: ReachabilityEngine, delta_t_s: int = 300) -> None:
        self.engine = engine
        self.delta_t_s = delta_t_s
        self.region_cache = RegionCache(REGION_CACHE_CAPACITY)
        # Every service over this engine hears about data changes, so a
        # direct engine-level append_trajectories/drop_indexes invalidates
        # this cache too (weakly registered: the engine does not pin the
        # service alive).
        engine.register_data_change_hook(self.region_cache.invalidate)

    # -- data lifecycle ----------------------------------------------------

    def append_trajectories(self, trajectories, update_database: bool = True) -> int:
        """Ingest new matched trajectories and invalidate derived caches.

        Appends to every built ST-Index (and, by default, the trajectory
        database whose speed statistics feed the Con-Index).  When the
        speed model moved, it drops the bounding-region caches of *every*
        service registered on the engine plus the Con-Index's memoized
        entries: regions computed from pre-append speed models must not
        be served for post-append queries.

        Returns the number of (segment, slot) entries touched across the
        built ST-Indexes.
        """
        return self.engine.append_trajectories(
            trajectories, update_database=update_database
        )

    # -- execution ---------------------------------------------------------

    def run_plan(
        self,
        plan: QueryPlan,
        query: SQuery | MQuery,
        reuse_regions: bool = True,
        recorder=None,
    ) -> tuple[QueryResult, ExecutionContext]:
        """Run one planned query through the service-lifetime caches.

        The execution path behind the client API's ``send``: a fresh
        :class:`ExecutionContext` wired to the service's bounding-region
        cache (unless ``reuse_regions`` is off), so repeated
        identically-shaped queries do not re-expand their bounds.
        ``recorder`` is ``explain``'s stage recorder, handed to the
        context.

        Returns the result plus the context, whose
        ``regions_computed``/``regions_reused`` counters are exact for
        this execution.
        """
        context = ExecutionContext(
            self.engine,
            plan.delta_t_s,
            region_cache=self.region_cache if reuse_regions else None,
            recorder=recorder,
        )
        return execute_plan(self.engine, plan, query, context=context), context


def as_service(target: QueryService | ReachabilityEngine) -> QueryService:
    """Adapt an engine to a service (call sites accept either)."""
    if isinstance(target, QueryService):
        return target
    return QueryService(target)
