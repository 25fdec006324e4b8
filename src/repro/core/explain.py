"""Query plan explanation: where did a query's cost go?

``EXPLAIN`` for reachability queries *observes* an ordinary execution
instead of re-running its own copy of it: the executor pipelines mark
their stage boundaries with
:meth:`~repro.core.executors.ExecutionContext.stage`, and attaching a
:class:`StageRecorder` to the context turns those marks into per-stage
wall time and page reads — start-segment lookup, bounding-region search
(Con-Index), trace-back verification (ST-Index time-list reads).  Same
route, same executor, same caches as the unexplained query, for every
registered algorithm.  The benchmark figures show *that* SQMB+TBS wins;
the explanation shows *why* (the shell it verifies is a small fraction of
what ES verifies).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.core.planner import QueryPlan
from repro.core.query import QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.envelope import Response
    from repro.api.router import RouteDecision


@dataclass
class StageCost:
    """One pipeline stage's contribution."""

    name: str
    wall_ms: float = 0.0
    page_reads: int = 0
    detail: str = ""

    def note(self, **facts) -> None:
        """Attach the stage's headline numbers (rendered ``key=value``)."""
        self.detail = ", ".join(f"{key}={value}" for key, value in facts.items())


class StageRecorder:
    """Times and charges every stage an execution marks.

    Attached to an :class:`~repro.core.executors.ExecutionContext`
    (``recorder=``); sub-queries of the ``*_each`` baselines run through
    the same context, so their stages land here too, in execution order.
    """

    def __init__(self, disk) -> None:
        self._disk = disk
        self.stages: list[StageCost] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[StageCost]:
        cost = StageCost(name)
        self.stages.append(cost)
        before = self._disk.snapshot()
        started = time.perf_counter()
        try:
            yield cost
        finally:
            cost.wall_ms = (time.perf_counter() - started) * 1e3
            cost.page_reads = (self._disk.snapshot() - before).page_reads


@dataclass
class QueryExplanation:
    """A decomposed query execution.

    Attributes:
        plan: the routing decisions the planner made for the query.
        result: the answer the explained execution produced; the sizes and
            counters below are read off it and its ``cost``.
        stages: per-stage costs, in execution order.
        route: the adaptive-routing decision that chose the plan, when
            the explanation came through the client API (``"auto"``
            classification rule, reason and shape features).
        response: the client API's :class:`~repro.api.envelope.Response`
            for the same execution (``client.explain`` only) — explaining
            a request does not cost a second run to get its answer.
    """

    plan: QueryPlan
    result: QueryResult
    stages: list[StageCost] = field(default_factory=list)
    route: "RouteDecision | None" = None
    response: "Response | None" = None

    @property
    def region_segments(self) -> int:
        """Result size."""
        return len(self.result.segments)

    @property
    def max_cover(self) -> int:
        """Maximum bounding-region size (0 for routes without bounds)."""
        region = self.result.max_region
        return len(region.cover) if region is not None else 0

    @property
    def examined(self) -> int:
        """Segments whose probability was actually verified."""
        return self.result.cost.segments_expanded

    def to_text(self) -> str:
        lines = [f"QUERY PLAN ({self.plan.algorithm})"]
        if self.route is not None:
            lines.append(f"  {self.route.describe()}")
        lines.append(f"  {self.plan.describe()}")
        for stage in self.stages:
            lines.append(
                f"  {stage.name:<24} {stage.wall_ms:8.2f} ms "
                f"{stage.page_reads:6d} reads  {stage.detail}"
            )
        lines.append(
            f"  region={self.region_segments} segments | "
            f"bound: max={self.max_cover} | "
            f"verified={self.examined}"
        )
        lines.extend(f"  {line}" for line in self.result.cost.path_lines())
        return "\n".join(lines)

