"""Baseline: exhaustive search (ES).

ES answers an s-query with no Con-Index at all: starting from the query
segment it expands the physical road network neighbour by neighbour and
verifies *every* visited segment's Eq. 3.1 probability against the
trajectory time lists on disk — "the searching process terminates until
Prob-reachable road segments at all possible branches on the road network"
(§4.1).  Without an index there is no way to know where the reachable
region ends, so the expansion runs to the end of every branch; its cost is
governed by the road network size, not the query, which is why the ES
curves of Figs 4.1(a)/4.3(a)/4.7 are nearly flat.  Every verified segment —
including the dense area right around the start location that SQMB+TBS
skips entirely — costs time-list reads, which is exactly the redundant disk
access the paper's design removes.

The expansion proceeds in BFS frontier *waves*: each level's segments are
verified in one batched call to the columnar probability kernel, which is
where ES spends essentially all of its time.  Wave processing preserves
the classic FIFO evaluation order exactly (a BFS queue drains level by
level in push order), so regions, probabilities and charged reads are
identical to the scalar loop preserved under ``tests/reference/``.

:func:`exhaustive_search_pruned` is a stronger variant (not in the paper)
that stops each branch as soon as historical support vanishes; it is kept
as an ablation comparator (``benchmarks/test_ablation_baselines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.probability import ProbabilityEstimator
from repro.network.model import RoadNetwork


@dataclass
class ExhaustiveResult:
    """Outcome of one exhaustive search.

    Attributes:
        region: segments meeting the probability threshold.
        failed: verified segments that fell short.
        probabilities: every probability computed.
        wave_sizes: members per BFS verification wave (the scalar
            reference records waves of one).
    """

    region: set[int] = field(default_factory=set)
    failed: set[int] = field(default_factory=set)
    probabilities: dict[int, float] = field(default_factory=dict)
    wave_sizes: list[int] = field(default_factory=list)

    @property
    def examined(self) -> int:
        return len(self.region) + len(self.failed)


def _exhaustive_waves(
    network: RoadNetwork,
    estimator: ProbabilityEstimator,
    prob: float,
    prune: bool,
) -> ExhaustiveResult:
    """BFS frontier waves, each verified in one batched kernel call."""
    result = ExhaustiveResult()
    start = estimator.start_segment
    frontier: list[int] = [start]
    visited: set[int] = {start}
    while frontier:
        result.wave_sizes.append(len(frontier))
        probabilities = estimator.probabilities(frontier)
        next_frontier: list[int] = []
        for segment_id, probability in zip(frontier, probabilities):
            result.probabilities[segment_id] = probability
            if probability >= prob:
                result.region.add(segment_id)
            else:
                result.failed.add(segment_id)
            if prune and probability <= 0.0:
                continue
            for neighbor in network.neighbors(segment_id):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return result


def exhaustive_search(
    network: RoadNetwork,
    estimator: ProbabilityEstimator,
    prob: float,
) -> ExhaustiveResult:
    """The paper's ES baseline: verify every road-connected segment.

    Expands the road network from the estimator's start segment to the end
    of all branches, verifying each segment against the trajectory data.
    """
    return _exhaustive_waves(network, estimator, prob, prune=False)


def exhaustive_search_pruned(
    network: RoadNetwork,
    estimator: ProbabilityEstimator,
    prob: float,
) -> ExhaustiveResult:
    """Support-pruned exhaustive search (ablation baseline, not in paper).

    Expansion continues through every segment with *any* historical support
    (probability > 0) and stops a branch when support vanishes; the cost is
    governed by the support region instead of the whole network.
    """
    return _exhaustive_waves(network, estimator, prob, prune=True)
