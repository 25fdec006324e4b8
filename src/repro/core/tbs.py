"""Algorithm 2: Trace Back Search (TBS).

TBS refines the maximum bounding region into the exact Prob-reachable
region.  It dequeues segments starting from the *outer* boundary of the
maximum bounding region; a segment whose Eq. 3.1 probability meets ``Prob``
is accepted (and, per the thesis's closer-is-more-reachable monotonicity
assumption, not expanded); a failing segment pushes its not-yet-visited
inward neighbours — minus the minimum bounding region — onto the queue.
Visited marking guarantees each segment is examined once (the ``r*``
example of Fig. 3.5).

The queue is drained in *waves*: each iteration snapshots the whole
pending frontier and evaluates it in one call to the columnar kernel
(:meth:`~repro.core.prob_kernel.ColumnarEq31Estimator.probabilities`:
one gather, one membership probe per seed, one buffer-pool charge) before
any accept/fail processing — for an m-query too, where the kernel replays
the scalar order of consulting the claiming seed, then the others.
Because a segment's probability is a pure function of the trajectory
data — independent of discovery order — and the wave preserves the
classic FIFO evaluation order, the examined set, the per-segment
probabilities and the charged time-list reads are *identical* to the
one-segment-at-a-time loop (preserved under ``tests/reference/`` as the
equivalence baseline); only the per-check Python overhead disappears.

The returned region is the minimum bounding cover (guaranteed reachable by
construction of the Near lists), plus every accepted segment, plus the
unexamined interior: segments of the maximum cover that a flood fill from
``r0`` can reach without crossing a segment that *failed* the probability
test.  That interior is exactly the part TBS never had to read trajectory
data for — the disk savings over exhaustive search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.probability import ProbabilityEstimator
from repro.core.query import BoundingRegion
from repro.network.model import RoadNetwork


@dataclass
class TraceBackResult:
    """Outcome of one trace-back search.

    Attributes:
        region: the final Prob-reachable segment set.
        passed: segments that explicitly met the probability threshold.
        failed: segments that were examined and fell short.
        probabilities: every probability actually computed.
        wave_sizes: members per evaluation wave, in dequeue order (the
            scalar reference records waves of one).
    """

    region: set[int] = field(default_factory=set)
    passed: set[int] = field(default_factory=set)
    failed: set[int] = field(default_factory=set)
    probabilities: dict[int, float] = field(default_factory=dict)
    wave_sizes: list[int] = field(default_factory=list)

    @property
    def examined(self) -> int:
        return len(self.passed) + len(self.failed)


def trace_back_search(
    network: RoadNetwork,
    estimators: dict[int, ProbabilityEstimator],
    prob: float,
    max_region: BoundingRegion,
    min_region: BoundingRegion,
) -> TraceBackResult:
    """Run Algorithm 2 over (possibly multi-seed) bounding regions.

    Args:
        network: road network supplying ``neighbor(r)``.
        estimators: per-seed probability estimators; for an s-query this is
            ``{r0: estimator}``, for an m-query one per start segment: each
            examined segment is tested against the seed that claimed it in
            the bounding region's ``seed_of`` attribution (the first
            estimator for an unclaimed one), then against the others while
            it stays below ``prob``.  An empty dict
            yields an empty result: with nothing to vouch for any segment,
            nothing is Prob-reachable.
        prob: the query's probability threshold.
        max_region: output of SQMB/MQMB with kind="far".
        min_region: output of SQMB/MQMB with kind="near".

    Returns:
        The Prob-reachable region and bookkeeping sets.
    """
    result = TraceBackResult()
    if not estimators:
        return result
    max_cover = max_region.cover
    min_cover = min_region.cover
    lead = next(iter(estimators.values()))
    queue: deque[int] = deque(sorted(max_region.boundary))
    visited: set[int] = set(max_region.boundary)
    while queue:
        wave = list(queue)
        queue.clear()
        result.wave_sizes.append(len(wave))
        values = lead.probabilities(wave, estimators, max_region.seed_of, prob)
        for segment_id, probability in zip(wave, values):
            result.probabilities[segment_id] = probability
            if probability >= prob:
                result.passed.add(segment_id)
                continue
            result.failed.add(segment_id)
            for neighbor in network.neighbors(segment_id):
                if neighbor in visited:
                    continue
                if neighbor not in max_cover:
                    continue  # never step outside the maximum bound
                if neighbor in min_cover:
                    continue  # Algorithm 2 line 9: neighbor(r) - Bmin
                visited.add(neighbor)
                queue.append(neighbor)

    # Assemble the final region: minimum cover + accepted segments + the
    # unexamined interior reachable from the seeds without crossing a
    # failed segment.
    result.region = set(min_cover) | result.passed
    seeds = [seed for seed in estimators if seed in max_cover]
    flood: deque[int] = deque(seeds)
    seen: set[int] = set(seeds)
    while flood:
        segment_id = flood.popleft()
        if segment_id in result.failed:
            continue
        result.region.add(segment_id)
        for neighbor in network.neighbors(segment_id):
            if neighbor in seen:
                continue
            if neighbor not in max_cover:
                continue
            if neighbor in result.failed:
                continue
            seen.add(neighbor)
            flood.append(neighbor)
    return result
