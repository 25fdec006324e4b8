"""Property test: the full index stack against a brute-force oracle.

Hypothesis generates small random trajectory histories; the oracle computes
Eq. 3.1 directly from raw visit dicts (no index, no disk, no twin-merge
shortcuts — just the definition).  The ES baseline running through the
ST-Index / PageStore / BufferPool stack must agree exactly, which pins the
whole read path (slot bucketing, record codecs, window merging, twin
handling) to the paper's semantics.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.client_protocol import s_query
from repro.api import QueryOptions, ReachabilityClient, Request
from repro.core.baseline import exhaustive_search
from repro.core.engine import ReachabilityEngine
from repro.core.probability import DEPARTURE_WINDOW_S, ProbabilityEstimator
from repro.core.query import SQuery
from repro.core.st_index import STIndex
from repro.network.generator import grid_city
from repro.spatial.geometry import Point
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

NETWORK = grid_city(rows=3, cols=3, spacing=500.0, primary_every=0, seed=1)
SEGMENT_IDS = sorted(NETWORK.segment_ids())
NUM_DAYS = 4
NUM_TAXIS = 3
T = float(day_time(11))
DELTA_T = 300
DURATION = 900


def road_of(segment_id: int) -> int:
    return NETWORK.segment(segment_id).canonical_id()


visits_strategy = st.lists(
    st.tuples(
        st.sampled_from(SEGMENT_IDS),
        st.floats(T - 200, T + DURATION + 200),
    ),
    min_size=1,
    max_size=12,
)
history_strategy = st.lists(
    st.tuples(
        st.integers(0, NUM_TAXIS - 1),
        st.integers(0, NUM_DAYS - 1),
        visits_strategy,
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda t: (t[0], t[1]),
)


def build_index(history):
    db = TrajectoryDatabase(num_taxis=NUM_TAXIS, num_days=NUM_DAYS)
    raw: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for taxi, day, visits in history:
        ordered = sorted(visits, key=lambda v: v[1])
        tid = day * NUM_TAXIS + taxi
        db.add(
            MatchedTrajectory(
                trajectory_id=tid, taxi_id=taxi, date=day,
                visits=[SegmentVisit(s, t, 5.0) for s, t in ordered],
            )
        )
        raw[(tid, day)] = ordered
    db.finalize()
    index = STIndex(NETWORK, DELTA_T)
    index.build(db)
    return index, raw


def oracle_probability(raw, start_segment: int, target_segment: int) -> float:
    """Eq. 3.1 straight from the definition, with road-level merging and
    the index's slot-granular windows."""
    slot_start = (T // DELTA_T) * DELTA_T
    start_window = (slot_start, slot_start + DELTA_T)
    target_window = (slot_start, slot_start + DURATION)
    start_roads = {road_of(start_segment)}
    target_roads = {road_of(target_segment)}
    per_day_start: dict[int, set[int]] = defaultdict(set)
    per_day_target: dict[int, set[int]] = defaultdict(set)
    for (tid, day), visits in raw.items():
        for segment, time_s in visits:
            # The index buckets by slot, so windows align to slots.
            slot_time = (time_s // DELTA_T) * DELTA_T
            if (
                road_of(segment) in start_roads
                and start_window[0] <= slot_time < start_window[1]
            ):
                per_day_start[day].add(tid)
            if (
                road_of(segment) in target_roads
                and target_window[0] <= slot_time < target_window[1]
            ):
                per_day_target[day].add(tid)
    good = sum(
        1
        for day in per_day_start
        if per_day_start[day] & per_day_target.get(day, set())
    )
    return good / NUM_DAYS


class TestSemanticsAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(history=history_strategy, start=st.sampled_from(SEGMENT_IDS))
    def test_probabilities_match_oracle(self, history, start):
        index, raw = build_index(history)
        estimator = ProbabilityEstimator(index, start, T, DURATION, NUM_DAYS)
        for target in SEGMENT_IDS[::3]:
            assert estimator.probability(target) == pytest.approx(
                oracle_probability(raw, start, target)
            ), f"target {target}"

    @settings(max_examples=25, deadline=None)
    @given(
        history=history_strategy,
        start=st.sampled_from(SEGMENT_IDS),
        prob=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    )
    def test_es_region_matches_oracle_threshold(self, history, start, prob):
        index, raw = build_index(history)
        estimator = ProbabilityEstimator(index, start, T, DURATION, NUM_DAYS)
        result = exhaustive_search(NETWORK, estimator, prob)
        expected_roads = {
            road_of(s)
            for s in SEGMENT_IDS
            if oracle_probability(raw, start, s) >= prob
        }
        got_roads = {road_of(s) for s in result.region}
        assert got_roads == expected_roads


class TestSubSlotStartCap:
    """A sub-slot s-query whose start road caps every probability below Prob.

    A 120 s, prob-0.3 s-query at (-221.0, -970.6), 08:00 on the test city.
    Eq. 3.1's ``m*`` counts days with a trajectory on the fixed side, so
    every probability is at most ``start_days / num_days``: here 0.1, below
    Prob, so nothing is Prob-reachable.  ES and ``sqmb_tbs`` both answer
    ``[]``: the bounded route skips the seed before any bound is built, and
    its EXPLAIN says so.
    """

    def test_the_start_road_caps_every_probability_below_prob(self, test_dataset):
        network, database = test_dataset.network, test_dataset.database
        query = SQuery(Point(-221.0, -970.6), float(day_time(8)), 120.0, 0.3)
        es = s_query(ReachabilityEngine(network, database), query, algorithm="es")
        (r0,) = es.start_segments
        road = {r0, network.segment(r0).twin_id} - {None}
        lo = query.start_time_s
        departure = (lo, lo + min(DEPARTURE_WINDOW_S, query.duration_s))
        window = (lo, lo + query.duration_s)
        # Eq. 3.1 for r0 itself, from the raw visits: per day, a trajectory
        # on r0's road in the departure window and again in the query window.
        left: dict[int, set[int]] = defaultdict(set)
        passed: dict[int, set[int]] = defaultdict(set)
        for trajectory in database:
            for visit in trajectory.visits:
                if visit.segment_id in road:
                    for bounds, days in ((departure, left), (window, passed)):
                        if bounds[0] <= visit.time_s < bounds[1]:
                            days[trajectory.date].add(trajectory.trajectory_id)
        m_star = sum(1 for day, ids in left.items() if ids & passed[day])
        cap = len(left) / database.num_days
        assert m_star / database.num_days == cap == 0.1 < query.prob
        assert es.probabilities[r0] == cap
        assert max(es.probabilities.values()) <= cap
        assert es.segments == set()

    def test_the_bounded_route_skips_the_capped_seed(self, test_dataset):
        query = SQuery(Point(-221.0, -970.6), float(day_time(8)), 120.0, 0.3)
        client = ReachabilityClient(ReachabilityEngine(test_dataset.network, test_dataset.database))
        explanation = client.explain(Request(query, QueryOptions(algorithm="sqmb_tbs")))
        (r0,) = explanation.result.start_segments
        assert explanation.result.segments == set()
        assert explanation.result.max_region is None
        assert [stage.name for stage in explanation.stages] == [
            "start-segment lookup", "start time-list read",
        ]
        assert f"below_cap=[{r0}]" in explanation.stages[1].detail
