"""Reference (pre-kernel) Eq. 3.1 probability implementations.

These are the scalar estimators and one-segment-at-a-time searches that
the columnar probability kernel (:mod:`repro.core.prob_kernel`) and the
wave-based TBS/ES replaced.  They are kept for the same reason as
:mod:`reference.legacy_expansion`: the kernel-equivalence tests
(``tests/test_prob_kernel.py``) prove the columnar path produces
*identical* probabilities, result regions, examined counts and page-read
accounting on randomized datasets — per evaluation and end-to-end, by
temporarily routing the executors through
:func:`legacy_probability_path` — and need a trustworthy baseline to diff
against.

They carry the PR 1-3 semantics exactly: per-day trajectory-id *sets*
built from :meth:`~repro.core.st_index.STIndex.trajectories_in_window`,
``set.isdisjoint`` day loops, a Δt-independent 5-minute departure window,
road-level twin merging, and FIFO single-segment TBS/ES loops.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager

from repro.core.baseline import ExhaustiveResult
from repro.core.probability import DEPARTURE_WINDOW_S
from repro.core.query import BoundingRegion
from repro.core.st_index import STIndex
from repro.core.tbs import TraceBackResult
from repro.network.model import RoadNetwork


class LegacyProbabilityEstimator:
    """The scalar Eq. 3.1 evaluator (pre-columnar-kernel live code).

    Same constructor signature, cache/twin semantics and ``checks``
    counter as the live :class:`~repro.core.probability.ProbabilityEstimator`;
    every evaluation runs the per-day set-intersection loop, so
    ``scalar_evals`` tracks ``checks`` and ``kernel_evals`` stays 0.
    """

    def __init__(
        self,
        index: STIndex,
        start_segment: int,
        start_time_s: float,
        duration_s: float,
        num_days: int,
    ) -> None:
        if num_days <= 0:
            raise ValueError(f"num_days must be positive, got {num_days}")
        self.index = index
        self.network = index.network
        self.start_segment = start_segment
        self.start_time_s = start_time_s
        self.duration_s = duration_s
        self.num_days = num_days
        self.checks = 0
        self.kernel_evals = 0
        self.scalar_evals = 0
        self._cache: dict[int, float] = {}
        self._start_sets = self._merged_window(
            start_segment,
            start_time_s,
            start_time_s + min(DEPARTURE_WINDOW_S, duration_s),
        )

    def _twin(self, segment_id: int) -> int | None:
        twin = self.network.segment(segment_id).twin_id
        if twin is not None and self.network.has_segment(twin):
            return twin
        return None

    def _merged_window(
        self, segment_id: int, start_s: float, end_s: float
    ) -> dict[int, set[int]]:
        """Per-day trajectory ids passing the *road* (either direction)."""
        merged = self.index.trajectories_in_window(segment_id, start_s, end_s)
        twin = self._twin(segment_id)
        if twin is not None:
            for date, ids in self.index.trajectories_in_window(
                twin, start_s, end_s
            ).items():
                bucket = merged.get(date)
                if bucket is None:
                    merged[date] = set(ids)
                else:
                    bucket |= ids
        return merged

    @property
    def start_days(self) -> int:
        """Days on which any trajectory left ``r0`` in the first slot."""
        return sum(1 for ids in self._start_sets.values() if ids)

    def probability(self, segment_id: int) -> float:
        """``probability(segment_id, r0)`` per Eq. 3.1 (cached, road-level)."""
        cached = self._cache.get(segment_id)
        if cached is not None:
            return cached
        self.checks += 1
        self.scalar_evals += 1
        if not self._start_sets:
            value = 0.0
        else:
            target_sets = self._merged_window(
                segment_id,
                self.start_time_s,
                self.start_time_s + self.duration_s,
            )
            good_days = 0
            for date, start_ids in self._start_sets.items():
                target_ids = target_sets.get(date)
                if target_ids and not start_ids.isdisjoint(target_ids):
                    good_days += 1
            value = good_days / self.num_days
        self._cache[segment_id] = value
        twin = self._twin(segment_id)
        if twin is not None:
            self._cache[twin] = value
        return value

    def probabilities(self, segment_ids) -> list[float]:
        """Scalar loop twin of the kernel's batch API (for wave callers)."""
        return [self.probability(segment_id) for segment_id in segment_ids]

    def is_reachable(self, segment_id: int, prob: float) -> bool:
        return self.probability(segment_id) >= prob


class LegacyReverseProbabilityEstimator(LegacyProbabilityEstimator):
    """The scalar reverse estimator: roles of start and target swapped.

    The fixed side is the *target's* full query window; each candidate
    pays its own departure-window read.
    """

    def __init__(
        self,
        index: STIndex,
        target_segment: int,
        start_time_s: float,
        duration_s: float,
        num_days: int,
    ) -> None:
        if num_days <= 0:
            raise ValueError(f"num_days must be positive, got {num_days}")
        self.index = index
        self.network = index.network
        self.start_segment = target_segment
        self.target_segment = target_segment
        self.start_time_s = start_time_s
        self.duration_s = duration_s
        self.num_days = num_days
        self.checks = 0
        self.kernel_evals = 0
        self.scalar_evals = 0
        self._cache: dict[int, float] = {}
        self._start_sets = self._merged_window(
            target_segment, start_time_s, start_time_s + duration_s
        )

    def probability(self, segment_id: int) -> float:
        """Reverse reachability probability of ``segment_id`` (cached)."""
        cached = self._cache.get(segment_id)
        if cached is not None:
            return cached
        self.checks += 1
        self.scalar_evals += 1
        if not self._start_sets:
            value = 0.0
        else:
            origin_sets = self._merged_window(
                segment_id,
                self.start_time_s,
                self.start_time_s
                + min(DEPARTURE_WINDOW_S, self.duration_s),
            )
            good_days = 0
            for date, target_ids in self._start_sets.items():
                origin_ids = origin_sets.get(date)
                if origin_ids and not target_ids.isdisjoint(origin_ids):
                    good_days += 1
            value = good_days / self.num_days
        self._cache[segment_id] = value
        twin = self._twin(segment_id)
        if twin is not None:
            self._cache[twin] = value
        return value


def trace_back_search_reference(
    network: RoadNetwork,
    estimators: dict,
    prob: float,
    max_region: BoundingRegion,
    min_region: BoundingRegion,
) -> TraceBackResult:
    """The pre-wave Algorithm 2: FIFO queue, one probability per dequeue."""
    result = TraceBackResult()
    if not estimators:
        return result
    max_cover = max_region.cover
    min_cover = min_region.cover
    default_seed = next(iter(estimators))

    def estimators_for(segment_id: int) -> list:
        seed = max_region.seed_of.get(segment_id, default_seed)
        first = estimators.get(seed, estimators[default_seed])
        ordered = [first]
        ordered.extend(e for s, e in estimators.items() if e is not first)
        return ordered

    queue: deque[int] = deque(sorted(max_region.boundary))
    visited: set[int] = set(max_region.boundary)
    while queue:
        segment_id = queue.popleft()
        result.wave_sizes.append(1)
        candidates = estimators_for(segment_id)
        probability = candidates[0].probability(segment_id)
        if probability < prob:
            for estimator in candidates[1:]:
                probability = max(
                    probability, estimator.probability(segment_id)
                )
                if probability >= prob:
                    break
        result.probabilities[segment_id] = probability
        if probability >= prob:
            result.passed.add(segment_id)
            continue
        result.failed.add(segment_id)
        for neighbor in network.neighbors(segment_id):
            if neighbor in visited:
                continue
            if neighbor not in max_cover:
                continue
            if neighbor in min_cover:
                continue
            visited.add(neighbor)
            queue.append(neighbor)

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


def _exhaustive_reference(
    network: RoadNetwork, estimator, prob: float, prune: bool
) -> ExhaustiveResult:
    result = ExhaustiveResult()
    start = estimator.start_segment
    queue: deque[int] = deque([start])
    visited: set[int] = {start}
    while queue:
        segment_id = queue.popleft()
        result.wave_sizes.append(1)
        probability = estimator.probability(segment_id)
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
                queue.append(neighbor)
    return result


def exhaustive_search_reference(
    network: RoadNetwork, estimator, prob: float
) -> ExhaustiveResult:
    """The pre-wave ES baseline: FIFO expansion, one check per dequeue."""
    return _exhaustive_reference(network, estimator, prob, prune=False)


def exhaustive_search_pruned_reference(
    network: RoadNetwork, estimator, prob: float
) -> ExhaustiveResult:
    """The pre-wave support-pruned ES (ablation baseline)."""
    return _exhaustive_reference(network, estimator, prob, prune=True)


@contextmanager
def legacy_probability_path():
    """Temporarily route the executors through the scalar probability path.

    Swaps the estimator classes and the search entry points the two
    executor pipelines call by name (``start_estimators`` /
    ``execute_bounded`` in ``executors.sqmb_tbs``, ``execute_exhaustive``
    in ``executors.es``) for the references above, restoring everything on
    exit.  The equivalence tests use this to run the exact same query
    twice — once columnar, once scalar — on one engine.
    """
    import repro.core.executors.es as es_mod
    import repro.core.executors.sqmb_tbs as tbs_mod

    swaps = (
        (tbs_mod, "ProbabilityEstimator", LegacyProbabilityEstimator),
        (tbs_mod, "ReverseProbabilityEstimator", LegacyReverseProbabilityEstimator),
        (tbs_mod, "trace_back_search", trace_back_search_reference),
        (es_mod, "exhaustive_search", exhaustive_search_reference),
        (es_mod, "exhaustive_search_pruned", exhaustive_search_pruned_reference),
    )
    saved = [getattr(module, name) for module, name, _ in swaps]
    for module, name, replacement in swaps:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for (module, name, _), original in zip(swaps, saved):
            setattr(module, name, original)
