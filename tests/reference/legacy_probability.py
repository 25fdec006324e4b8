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
built from :func:`trajectories_in_window` (a window's dict-based filter
over :meth:`~repro.core.st_index.STIndex.time_entries`),
``set.isdisjoint`` day loops, a Δt-independent 5-minute departure window,
road-level twin merging, and single-segment TBS/ES loops.
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


def trajectories_in_window(index, segment_id: int, start_s: float, end_s: float) -> dict[int, set[int]]:
    """Per-date trajectory IDs passing a segment within ``[start_s, end_s)``.

    Every visit of the overlapped slots is kept by its own second, so the
    window boundaries are exact rather than rounded out to whole Δt slots.
    A window crossing midnight is split at the day boundary (time-of-day is
    cyclic) and both parts contribute.  Reads are charged, slot by slot,
    through :meth:`~repro.core.st_index.STIndex.time_entries`.
    """
    merged: dict[int, set[int]] = {}
    for lo, hi, first_slot, last_slot in index.window_plan(start_s, end_s):
        for slot in range(first_slot, last_slot + 1):
            for date, visits in index.time_entries(segment_id, slot).items():
                ids = {tid for tid, second in visits if lo <= second < hi}
                if ids:
                    merged.setdefault(date, set()).update(ids)
    return merged


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
        charges: None = None,  # the reference never runs in lock step
    ) -> None:
        if num_days <= 0:
            raise ValueError(f"num_days must be positive, got {num_days}")
        self.index = index
        self.network = index.network
        self.start_segment = start_segment
        self.num_days = num_days
        self.checks = 0
        self.kernel_evals = 0
        self.scalar_evals = 0
        self._cache: dict[int, float] = {}
        fixed, self._candidate_window = self._windows(start_time_s, duration_s)
        self._start_sets = self._merged_window(start_segment, *fixed)

    @staticmethod
    def _windows(start_time_s, duration_s):
        """The fixed side's window (``r0``'s departures) and the candidates'."""
        departure = min(DEPARTURE_WINDOW_S, duration_s)
        return (start_time_s, start_time_s + departure), (start_time_s, start_time_s + duration_s)

    @classmethod
    def for_seeds(cls, index, seeds, start_time_s, duration_s, num_days, charges=None):
        """The live alternate constructor's signature, one seed at a time."""
        return [cls(index, seed, start_time_s, duration_s, num_days) for seed in seeds]

    def _twin(self, segment_id: int) -> int | None:
        twin = self.network.segment(segment_id).twin_id
        if twin is not None and self.network.has_segment(twin):
            return twin
        return None

    def _merged_window(
        self, segment_id: int, start_s: float, end_s: float
    ) -> dict[int, set[int]]:
        """Per-day trajectory ids passing the *road* (either direction)."""
        merged = trajectories_in_window(self.index, segment_id, start_s, end_s)
        twin = self._twin(segment_id)
        if twin is not None:
            for date, ids in trajectories_in_window(self.index, twin, start_s, end_s).items():
                bucket = merged.get(date)
                if bucket is None:
                    merged[date] = set(ids)
                else:
                    bucket |= ids
        return merged

    def candidate_sets(self, segment_id: int) -> dict[int, set[int]]:
        """The candidate road's per-day trajectory ids in its window (charged)."""
        return self._merged_window(segment_id, *self._candidate_window)

    @property
    def start_days(self) -> int:
        """Days on which any trajectory left ``r0`` in the first slot."""
        return sum(1 for ids in self._start_sets.values() if ids)

    def probability(self, segment_id: int, candidate_sets=None) -> float:
        """Eq. 3.1 (cached, road-level), from ``candidate_sets`` when another
        estimator of the search already read the road."""
        cached = self._cache.get(segment_id)
        if cached is not None:
            return cached
        self.checks += 1
        self.scalar_evals += 1
        value = 0.0
        if self._start_sets:
            if candidate_sets is None:
                candidate_sets = self.candidate_sets(segment_id)
            good_days = sum(
                not start_ids.isdisjoint(candidate_sets.get(date, ()))
                for date, start_ids in self._start_sets.items()
            )
            value = good_days / self.num_days
        self._cache[segment_id] = value
        twin = self._twin(segment_id)
        if twin is not None:
            self._cache[twin] = value
        return value


class LegacyReverseProbabilityEstimator(LegacyProbabilityEstimator):
    """The scalar reverse estimator: the fixed side is the *target's* full
    query window; each candidate pays its own departure-window read."""

    @staticmethod
    def _windows(start_time_s, duration_s):
        departure, window = LegacyProbabilityEstimator._windows(start_time_s, duration_s)
        return window, departure


def best_of_seeds(estimators: dict, segment_ids) -> list[float]:
    """Each segment's best probability over ``estimators``, one segment at a
    time: a road is read once, when a seed with departures has not cached
    it, and every seed evaluates it from that read."""
    lead = next(iter(estimators.values()))
    values = []
    for segment_id in segment_ids:
        unread = any(e._start_sets and segment_id not in e._cache for e in estimators.values())
        sets = lead.candidate_sets(segment_id) if unread else None
        values.append(max(e.probability(segment_id, sets) for e in estimators.values()))
    return values


def trace_back_search_reference(
    network: RoadNetwork,
    estimators: dict,
    prob: float,
    max_region: BoundingRegion,
) -> TraceBackResult:
    """Algorithm 2 as the ring rule, one segment at a time: each segment of
    Bmax, in id order, valued by :func:`best_of_seeds` — the rules of
    the columnar search, so counters and charged page ids compare exactly."""
    if not estimators:
        return TraceBackResult()
    ring = sorted(max_region.cover)
    result = TraceBackResult.of_ring(ring, best_of_seeds(estimators, ring), prob)
    result.wave_sizes = [1] * len(ring)
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
    in ``executors.es``) for the references above, and turns the serial
    batch's lock step off, restoring everything on exit.  The equivalence tests use this to run the exact same query
    twice — once columnar, once scalar — on one engine.
    """
    import repro.api.client as client_mod
    import repro.core.executors.es as es_mod
    import repro.core.executors.sqmb_tbs as tbs_mod

    swaps = (
        (client_mod, "LOCKSTEP", frozenset()),  # serial batches: one query at a time
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
