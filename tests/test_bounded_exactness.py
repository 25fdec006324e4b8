"""Differential test: every bounded route against the exhaustive one.

``es`` / ``es_each`` verify every road-connected segment against Eq. 3.1 and
share no bound with the bounded routes, so they check them independently:
the cap skip of ``bounded_front`` (a seed whose ``start_days / num_days`` is
below Prob reaches nothing) and the trace-back, which values every segment
of Bmax, must leave no superset.  On a seeded sample of the test
city — s-, m- and reverse queries over durations {120, 300, 600, 1200} s ×
Prob {0.1, 0.2, 0.3, 0.5} — each bounded answer must equal the exhaustive
one, except for the differences listed in :data:`RESIDUALS`, each with its
cause:

* ``bmax-miss`` — ES finds the segment, and Bmax does not hold it: the
  residual-carry expansion keeps a segment that can be *left* within L,
  while Eq. 3.1 counts a segment that is *entered* within L.

A difference of any other kind — an examined segment the two routes judge
apart, an unexamined one in the answer — fails, and so does a listed one
that went away.  Tier-1 draws the sample from rng seed 7; CI's deep step
sets ``EXACTNESS_SEEDS`` to draw 11, 12 and 13 as well.
"""

from __future__ import annotations

import os
import random

import pytest

from benchmarks.client_protocol import request
from repro.api import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery, SQuery
from repro.spatial.geometry import Point

DURATIONS = (120.0, 300.0, 600.0, 1200.0)
PROBS = (0.1, 0.2, 0.3, 0.5)
PER_CELL = 8  # start times per (duration, Prob); each draws one s-, r- and m-query
BOUNDED = {"s": "sqmb_tbs", "r": "sqmb_tbs", "m": "mqmb_tbs"}
EXHAUSTIVE = {"s": "es", "r": "es", "m": "es_each"}


def cases(seed: int = 7) -> list[tuple[str, SQuery | MQuery]]:
    """Start times in 07:00–19:00 and locations over the whole test city."""
    rng = random.Random(seed)

    def point() -> Point:
        return Point(round(rng.uniform(-2200, 2200), 1), round(rng.uniform(-2200, 2200), 1))

    out: list[tuple[str, SQuery | MQuery]] = []
    for duration in DURATIONS:
        for prob in PROBS:
            for _ in range(PER_CELL):
                start = float(rng.randrange(7 * 3600, 19 * 3600))
                out.append(("s", SQuery(point(), start, duration, prob)))
                out.append(("r", SQuery(point(), start, duration, prob)))
                out.append(("m", MQuery((point(), point()), start, duration, prob)))
    return out


#: rng seeds of the sample (seed 7 alone unless ``EXACTNESS_SEEDS`` lists more).
SEEDS = [int(seed) for seed in os.environ.get("EXACTNESS_SEEDS", "7").split(",")]

#: Every difference the samples show: (kind, query) -> {cause: segments}.
RESIDUALS = {
    # rng seed 7
    ("s", SQuery(Point(-1734.6, 423.0), 25615.0, 1200.0, 0.1)): {"bmax-miss": {116, 119}},
    # rng seed 12
    ("m", MQuery((Point(982.4, 554.9), Point(716.6, -2009.3)), 67803.0, 600.0, 0.1)): {
        "bmax-miss": {29, 30},
    },
}


@pytest.fixture(scope="module")
def client(test_dataset):
    return ReachabilityClient(ReachabilityEngine(test_dataset.network, test_dataset.database))


def send(client, kind, query, routes):
    direction = "reverse" if kind == "r" else "forward"
    return client.send(request(query, routes[kind], direction=direction)).result


def causes(bounded, truth) -> dict[str, set[int]]:
    """The difference of one bounded answer from the exhaustive one, by cause."""
    examined = set(bounded.probabilities)
    found: dict[str, set[int]] = {}
    for segment in bounded.segments ^ truth.segments:
        side = "extra" if segment in bounded.segments else "miss"
        if segment in examined:
            cause = f"examined-{side}"
        else:
            cause = "bmax-miss" if side == "miss" else "unexamined-extra"
        found.setdefault(cause, set()).add(segment)
    return found


def test_bounded_routes_answer_what_exhaustive_search_answers(client):
    found, sample = {}, []
    for seed in SEEDS:
        sample += cases(seed)
    for kind, query in sample:
        bounded = send(client, kind, query, BOUNDED)
        truth = send(client, kind, query, EXHAUSTIVE)
        if bounded.segments != truth.segments:
            found[(kind, query)] = causes(bounded, truth)
    assert found == {case: diff for case, diff in RESIDUALS.items() if case in sample}


def test_the_lock_step_run_answers_as_each_query_alone(client):
    """One batch of every bounded case runs in lock step; each member's answer
    and probabilities equal its own send's."""
    sample = cases()
    requests = [
        request(query, BOUNDED[kind], direction="reverse" if kind == "r" else "forward")
        for kind, query in sample
    ]
    report = client.run_batch(requests)
    for (kind, query), result in zip(sample, report.results):
        alone = send(client, kind, query, BOUNDED)
        assert result.segments == alone.segments, query
        assert result.probabilities == alone.probabilities, query


@pytest.mark.xfail(strict=True, reason="Bmax holds segments left within L, not entered")
def test_a_road_entered_within_l_lies_in_bmax(client):
    """Trajectory 197 (date 7) enters road 56/59 1,123 s after the query
    start, so ES returns it at probability 0.1; the residual-carry expansion
    leaves 56 out of Bmax because it cannot be crossed within 1,200 s."""
    query = SQuery(Point(-500.0, -2000.0), 25200.0, 1200.0, 0.1)
    truth = send(client, "s", query, EXHAUSTIVE)
    bounded = send(client, "s", query, BOUNDED)
    assert {56, 59} <= truth.segments
    assert {56, 59} <= bounded.max_region.cover
    assert {56, 59} <= bounded.segments


def test_an_interior_cut_off_by_failed_segments_is_examined(client):
    """A reverse query whose inner segments 12 and 15 fail: a flood from the
    seed could not cross them, and the roads 36/39 and 40/43 behind them, at
    probability 0.1 on ES, would drop out of the answer; the ring probe
    examines them."""
    query = SQuery(Point(-965.2, -1972.9), 53252.0, 1200.0, 0.1)
    truth = send(client, "r", query, EXHAUSTIVE)
    bounded = send(client, "r", query, BOUNDED)
    assert {12, 15} <= bounded.max_region.cover
    assert max(bounded.probabilities[s] for s in (12, 15)) < query.prob
    assert {36, 39, 40, 43} <= truth.segments
    assert {36, 39, 40, 43} <= bounded.segments
