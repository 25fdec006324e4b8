"""Pluggable query executors behind a registry.

Each algorithm family lives in its own module and registers callables with
:func:`register_executor`; the engine and the query service dispatch by
``(kind, name)`` registry lookup instead of hardcoded ``if/elif`` chains,
so third parties can add algorithms without touching either.

An executor is a callable ``(context, plan, query) -> ExecutionOutcome``:
it receives an :class:`ExecutionContext` (index accessors, bounding-region
dedup cache) and a frozen :class:`~repro.core.planner.QueryPlan`, and
returns the result plus the probability estimators it used.  Cost
accounting (wall time, disk-stat differencing) happens once in
:func:`execute_plan`, never inside executors.

Two pipelines, each written once; every built-in registration delegates to
one of them:

* :func:`~repro.core.executors.sqmb_tbs.execute_bounded` — start
  segments -> Eq. 3.1 estimators -> Far/Near bounding regions -> trace-back
  (Algorithms 1-3), for s-, m- and reverse queries alike;
* :func:`~repro.core.executors.es.execute_exhaustive` — the same front
  half, then exhaustive verification (the ES baselines).

The family modules (``sqmb_tbs``, ``mqmb_tbs``, ``es``, ``reverse``) are
the registration points.  Both pipelines mark their stage boundaries with
:meth:`ExecutionContext.stage`: one method call per stage unless
``EXPLAIN`` attached a recorder to the context.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.mqmb import mqmb_bounding_region
from repro.core.query import BoundingRegion, MQuery, QueryCost, QueryResult, SQuery
from repro.core.region_cache import RegionCache
from repro.core.sqmb import sqmb_bounding_region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ReachabilityEngine
    from repro.core.planner import QueryPlan


@dataclass
class ExecutionOutcome:
    """What an executor hands back for cost accounting.

    Attributes:
        result: the query result (cost filled in by :func:`execute_plan`).
        estimators: probability estimators consulted (their ``checks`` /
            ``kernel_evals`` / ``scalar_evals`` counters feed the cost
            metrics).
        examined: segments whose probability was actually verified.
        wave_sizes: members per batched probability-evaluation wave, in
            search order (TBS boundary waves, ES frontier levels).
    """

    result: QueryResult = field(default_factory=QueryResult)
    estimators: list = field(default_factory=list)
    examined: int = 0
    wave_sizes: list[int] = field(default_factory=list)


Executor = Callable[["ExecutionContext", "QueryPlan", SQuery | MQuery], ExecutionOutcome]


class _UnrecordedStage:
    """The stage handle of an execution nobody is watching: one shared,
    stateless no-op."""

    __slots__ = ()

    def __enter__(self) -> "_UnrecordedStage":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def note(self, **facts) -> None:
        return None


_UNRECORDED = _UnrecordedStage()

_REGISTRY: dict[tuple[str, str], Executor] = {}


def register_executor(kind: str, name: str) -> Callable[[Executor], Executor]:
    """Class/function decorator registering an executor for a query kind.

    Args:
        kind: ``"s"``, ``"m"`` or ``"r"``.
        name: algorithm name used in plans and user-facing APIs.

    Raises:
        ValueError: duplicate registration.
    """
    if kind not in ("s", "m", "r"):
        raise ValueError(f"unknown query kind {kind!r}")

    def decorate(executor: Executor) -> Executor:
        key = (kind, name)
        if key in _REGISTRY:
            raise ValueError(f"executor {name!r} already registered for kind {kind!r}")
        _REGISTRY[key] = executor
        return executor

    return decorate


def get_executor(kind: str, name: str) -> Executor:
    """Look an executor up; raises ``KeyError`` when unregistered."""
    try:
        return _REGISTRY[(kind, name)]
    except KeyError:
        raise KeyError(f"no executor {name!r} registered for kind {kind!r}") from None


def has_executor(kind: str, name: str) -> bool:
    return (kind, name) in _REGISTRY


def executor_names(kind: str) -> tuple[str, ...]:
    """Registered algorithm names for a query kind, in registration order."""
    return tuple(n for (k, n) in _REGISTRY if k == kind)


class ExecutionContext:
    """Shared resources for one execution (or one batch of executions).

    Owns no indexes — it resolves them through the engine — but carries the
    state the :class:`~repro.core.service.QueryService` shares across
    queries: the bounding-region dedup cache (a service-lifetime
    :class:`~repro.core.region_cache.RegionCache`, so regions are shared
    across batches, not just within one) and this execution's hit
    counters.

    The counters are guarded by a lock and the cache deduplicates
    concurrent computations, so under ``max_workers > 1`` every
    ``bounding_region`` call is counted exactly once and no region is
    expanded twice.

    Args:
        engine: the index-owning engine.
        delta_t_s: index granularity for this execution.
        region_cache: optional shared :class:`RegionCache`; when given,
            identical bounding-region computations across queries (and
            batches) are performed once (the batch dedup of §3.3's
            motivation: nearby queries share most of their bounds).
        recorder: ``EXPLAIN``'s :class:`~repro.core.explain.StageRecorder`;
            when given, every :meth:`stage` the pipelines mark is timed
            and charged into it.
    """

    def __init__(
        self,
        engine: "ReachabilityEngine",
        delta_t_s: int,
        region_cache: RegionCache | None = None,
        recorder=None,
    ) -> None:
        self.engine = engine
        self.delta_t_s = delta_t_s
        self.region_cache = region_cache
        self.recorder = recorder
        self.regions_computed = 0  # guarded_by: _stats_lock
        self.regions_reused = 0  # guarded_by: _stats_lock
        self._stats_lock = threading.Lock()

    # -- resource access -----------------------------------------------------

    @property
    def network(self):
        return self.engine.network

    @property
    def database(self):
        return self.engine.database

    def st_index(self):
        return self.engine.st_index(self.delta_t_s)

    def con_index(self):
        return self.engine.con_index(self.delta_t_s)

    # -- stage boundaries ------------------------------------------------------

    def stage(self, name: str):
        """Mark one pipeline stage: ``with ctx.stage(name) as stage: ...``.

        The handle's ``note(**facts)`` attaches the stage's headline
        numbers.  Without a recorder this is the shared no-op handle.
        """
        if self.recorder is None:
            return _UNRECORDED
        return self.recorder.stage(name)

    # -- bounding-region dedup -----------------------------------------------

    def bounding_region(
        self,
        strategy: str,
        seeds: tuple[int, ...],
        start_time_s: float,
        duration_s: float,
        kind: str,
    ) -> BoundingRegion:
        """Compute (or reuse) a bounding region.

        The cache key is exact: a region depends only on the strategy, the
        seed segments, the slot sequence (start slot + hop count), the
        Near/Far kind and the index granularity — so two queries in the
        same Δt slot with the same seeds share their bounds regardless of
        sub-slot start time or probability threshold, across batches.
        """
        con = self.con_index()

        def compute() -> BoundingRegion:
            if strategy == "sqmb":
                return sqmb_bounding_region(
                    con, seeds[0], start_time_s, duration_s, kind
                )
            if strategy == "mqmb":
                return mqmb_bounding_region(
                    con, list(seeds), start_time_s, duration_s, kind
                )
            if strategy == "reverse":
                from repro.core.reverse import reverse_bounding_region

                return reverse_bounding_region(
                    con, seeds[0], start_time_s, duration_s, kind
                )
            raise ValueError(f"unknown bounding strategy {strategy!r}")

        if self.region_cache is None:
            region, reused = compute(), False
        else:
            steps = max(1, int(duration_s // self.delta_t_s))
            key = (
                strategy, seeds, con.slot_of(start_time_s), steps, kind,
                self.delta_t_s,
            )
            region, reused = self.region_cache.get_or_compute(key, compute)
        with self._stats_lock:
            if reused:
                self.regions_reused += 1
            else:
                self.regions_computed += 1
        return region

    # -- nested execution ------------------------------------------------------

    def run_subquery(
        self, kind: str, query: SQuery | MQuery, algorithm: str, warm: bool
    ) -> ExecutionOutcome:
        """Plan and run a nested query inside the current accounting window.

        Used by the naive m-query baselines, whose point is to run ``n``
        independent s-queries; each sub-query pays its own cold I/O unless
        the enclosing plan is warm.
        """
        from repro.core.planner import plan_query

        plan = plan_query(kind, query, algorithm, self.delta_t_s, warm=warm)
        if not plan.warm:
            self.engine.invalidate_caches()
        executor = get_executor(plan.kind, plan.executor)
        return executor(self, plan, query)


def execute_plan(
    engine: "ReachabilityEngine",
    plan: "QueryPlan",
    query: SQuery | MQuery,
    context: ExecutionContext | None = None,
) -> QueryResult:
    """Run a plan through its registered executor, with cost accounting.

    Args:
        engine: the index-owning engine.
        plan: a plan from :mod:`~repro.core.planner`.
        query: the query the plan was made for.
        context: optional shared context (the service passes a per-batch
            one); a private context is created when omitted.

    Returns:
        The result with cost metrics (wall time, simulated disk I/O,
        probability checks) filled in.
    """
    ctx = (
        context
        if context is not None
        else ExecutionContext(engine, plan.delta_t_s)
    )
    executor = get_executor(plan.kind, plan.executor)
    # Resolve indexes before the accounting window opens: index
    # construction is offline work in the paper's model and must not be
    # charged to the first query at a new Δt.
    st_index = engine.st_index(plan.delta_t_s)
    if plan.uses_con_index:
        engine.con_index(plan.delta_t_s)
    if not plan.warm:
        engine.invalidate_caches()
    # Per-thread snapshot window: under a threaded batch each worker sees
    # only its own I/O, so per-query attribution is exact (and identical
    # to the global window when execution is single-threaded).
    before = engine.disk.local_snapshot()
    started = time.perf_counter()
    outcome = executor(ctx, plan, query)
    diff = engine.disk.local_snapshot() - before

    def total(counter: str) -> int:
        return sum(getattr(e, counter, 0) for e in outcome.estimators)

    result = outcome.result
    result.cost = QueryCost(
        wall_time_s=time.perf_counter() - started,
        io=diff,
        # Reads only: page writes can only stem from lazy index
        # construction, which is offline work in the paper's model.
        simulated_io_ms=diff.page_reads * engine.disk.read_latency_ms,
        probability_checks=total("checks"),
        segments_expanded=outcome.examined,
        kernel_probability_evals=total("kernel_evals"),
        scalar_probability_evals=total("scalar_evals"),
        probability_waves=len(outcome.wave_sizes),
        max_wave_size=max(outcome.wave_sizes, default=0),
        batched_record_reads=total("batched_record_reads"),
        prefetched_pages=total("prefetched_pages"),
        pool_lock_shards=st_index.pool.num_shards,
    )
    return result


# Importing the built-in families registers them; keep these imports at the
# bottom so the registry exists when the modules run their decorators.
from repro.core.executors import sqmb_tbs as _sqmb_tbs  # noqa: E402,F401
from repro.core.executors import es as _es  # noqa: E402,F401
from repro.core.executors import mqmb_tbs as _mqmb_tbs  # noqa: E402,F401
from repro.core.executors import reverse as _reverse  # noqa: E402,F401

__all__ = [
    "ExecutionContext",
    "ExecutionOutcome",
    "execute_plan",
    "executor_names",
    "get_executor",
    "has_executor",
    "register_executor",
]
