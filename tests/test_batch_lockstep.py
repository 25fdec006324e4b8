"""Generated lock-step batches against serial execution.

A serial batch runs every maximal run of ``LOCKSTEP_MIN_RUN`` or more
consecutive bounded members (SQMB/MQMB/reverse + TBS) in lock step — here
with that cut or a cut of 4: the front halves in submission order, the
run's rings gathered as columns and probed once, then each member's
recorded page ids replayed through the pool in submission order.  For
mixed s/m/reverse batches with ES and ``sqmb_tbs_each`` members cutting
the runs, two Δt, duplicate requests, a start road nothing left in the
departure window and both carriageways of two-way roads as starts — under
ST-Index pool capacities {0, 1, 8, default}, window-gather memo sizes {0,
default}, warm and cold — the batch must equal each member run alone
through ``execute_plan``, in order, in one window: results and
probabilities, every ``QueryCost`` field but the wall time, the region
counters, ``report.io`` and the page-id sequence every ST-Index pool
receives.  One more engine indexes the same trips with dates just below
2**31, the largest a packed visit key holds.  Deterministic cases on the
test city: rings on both sides of ``SCALAR_EVAL_MAX_VISITS`` and an
m-query of two live seeds; a one-member run, which charges what ``send``
charges; a spy that finds one gather per (ST-Index, candidate plan) per
run, each answering one entry per requested segment; and window-gather
memos of 1 and 24 segments, which every run's plans overflow, answering
as the memo-off engine does.

The stream keeps its contract: responses are published one per pull in
submission order, a member that raises does so at its own pull after the
earlier ones were yielded, and the per-query wall times are positive and
sum to at most the batch's.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_wave_accounting import MEMO_SIZES, POOL_SIZES, T, PoolSpy, along

from repro.api import QueryOptions, ReachabilityClient, Request
from repro.core.engine import ReachabilityEngine
from repro.core.executors import ExecutionContext
from repro.core import tbs
from repro.core.executors.sqmb_tbs import LOCKSTEP_MIN_RUN
from repro.core.probability import ProbabilityEstimator
from repro.core.query import MQuery, SQuery
from repro.core.st_index import STIndex
from repro.trajectory.model import MatchedTrajectory

DELTA_TS = (300, 600)
#: Generated batches per run; CI's lock-step step raises it to 100 or more.
EXAMPLES = int(os.environ.get("LOCKSTEP_EXAMPLES", "10"))
FAR_DATES = (1 << 31) - 16  # added to every date of the far-dates engine


def install(engine, network, source, pool, memo) -> ReachabilityEngine:
    for delta_t_s in DELTA_TS:
        index = STIndex(
            network,
            delta_t_s,
            disk=engine.disk,
            buffer_pool_pages=engine.buffer_pool_pages if pool is None else pool,
            **({} if memo is None else {"record_cache_size": memo}),
        )
        index.build(source)
        engine.install_st_index(delta_t_s, index)
    return engine


@pytest.fixture(scope="module")
def engines(test_dataset):
    """One engine per (pool capacity, memo size), plus the far-dates one."""
    network, database = test_dataset.network, test_dataset.database
    out = {
        (pool, memo): install(ReachabilityEngine(network, database), network, database, pool, memo)
        for pool in POOL_SIZES
        for memo in MEMO_SIZES
    }
    shifted = [
        MatchedTrajectory(t.trajectory_id, t.taxi_id, t.date + FAR_DATES, t.visits)
        for t in database
    ]
    out["far dates"] = install(
        ReachabilityEngine(network, database), network, shifted, None, None
    )
    return out


@pytest.fixture(scope="module")
def roads(test_dataset):
    """Start roads split by whether anything left them at ``T``."""
    network, database = test_dataset.network, test_dataset.database
    index = STIndex(network, DELTA_TS[0])
    index.build(database)
    live, dead = [], []
    for segment in sorted(network.segments(), key=lambda s: s.segment_id):
        estimator = ProbabilityEstimator(index, segment.segment_id, T, 600.0, database.num_days)
        (live if estimator.start_days else dead).append(segment)
    two_way = [segment for segment in live if segment.twin_id is not None]
    return live, dead, two_way, network


@st.composite
def batches(draw, roads):
    live, dead, two_way, network = roads
    fraction = st.floats(0.1, 0.9)

    def point(pool):
        return along(draw(st.sampled_from(pool)), draw(fraction))

    requests: list[Request] = []
    for _ in range(draw(st.integers(3, 9))):
        options = QueryOptions(delta_t_s=draw(st.sampled_from(DELTA_TS)))
        window = (
            T + draw(st.sampled_from([0.0, 130.0])),
            draw(st.sampled_from([600.0, 1200.0])),
            draw(st.sampled_from([0.1, 0.3])),
        )
        shape = draw(st.sampled_from(["s", "s", "r", "m", "m", "es", "each", "dead", "twin", "again"]))
        if shape == "again" and requests:
            requests.append(draw(st.sampled_from(requests)))
            continue
        if shape in ("s", "r", "es", "dead", "again"):
            query = SQuery(point(dead if shape == "dead" else live), *window)
            algorithm = {"r": "sqmb_tbs", "es": "es"}.get(shape, "sqmb_tbs")
            direction = "reverse" if shape == "r" else "forward"
            options = dataclasses.replace(options, algorithm=algorithm, direction=direction)
        else:
            points = [point(live) for _ in range(draw(st.integers(1, 3)))]
            if shape == "twin":  # both carriageways of one road
                road = draw(st.sampled_from(two_way))
                points += [along(road, 0.5), along(network.segment(road.twin_id), 0.5)]
            if draw(st.booleans()):
                points.append(along(draw(st.sampled_from(dead)), 0.5))
            algorithm = "sqmb_tbs_each" if shape == "each" else "mqmb_tbs"
            query = MQuery(tuple(points), *window)
            options = dataclasses.replace(options, algorithm=algorithm)
        requests.append(Request(query, options))
    return requests


def run(engine, requests, warm: bool, lockstep: bool, min_run: int = LOCKSTEP_MIN_RUN):
    """Stream a batch (from a cold start when ``warm``: after a serial
    pass over it) and return its responses, report and pool page ids;
    ``min_run`` is the shortest run of bounded members put in lock step."""
    patch = mock.patch("repro.api.client.LOCKSTEP", frozenset())
    if warm:
        engine.invalidate_caches()
        with patch:
            ReachabilityClient(engine).run_batch(requests)
    spies = [PoolSpy(engine.st_index(delta_t_s).pool) for delta_t_s in DELTA_TS]
    try:
        with mock.patch("repro.api.client.LOCKSTEP_MIN_RUN", min_run) if lockstep else patch:
            stream = ReachabilityClient(engine).stream(requests, warm=warm)
            responses = list(stream)
    finally:
        for spy in spies:
            spy.close()
    return responses, stream.report, [spy.ids for spy in spies]


def summary(response):
    result = response.result
    return (
        response.sequence,
        result.segments,
        result.probabilities,
        result.start_segments,
        dataclasses.replace(result.cost, wall_time_s=0.0),
        response.regions_computed,
        response.regions_reused,
    )


def assert_batch_equals_serial(engine, requests, warm: bool, min_run: int, where: str) -> list:
    """Serial and lock-step runs of ``requests`` agree in every ``QueryCost`` field but
    the wall time, ``report.io``, the region counters and the pools' page ids; member
    wall times are positive and sum to at most the batch's.  Returns the answers."""
    run(engine, requests, False, False)  # Con-Index entries, both share
    serial, serial_report, serial_ids = run(engine, requests, warm, False)
    batch, report, ids = run(engine, requests, warm, True, min_run)
    assert [summary(r) for r in batch] == [summary(r) for r in serial], where
    assert report.io == serial_report.io, where
    assert ids == serial_ids, where
    assert (report.regions_computed, report.regions_reused) == (
        serial_report.regions_computed, serial_report.regions_reused,
    ), where
    walls = [response.result.cost.wall_time_s for response in batch]
    assert min(walls) > 0 and sum(walls) <= report.wall_time_s, where
    return [summary(r)[1:4] for r in batch]


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_lockstep_batches_equal_serial_execution(engines, roads, data):
    requests = data.draw(batches(roads))
    warm = data.draw(st.booleans())
    min_run = data.draw(st.sampled_from([LOCKSTEP_MIN_RUN, 4]))
    answers = [
        assert_batch_equals_serial(
            engine, requests, warm, min_run, f"engine={key} warm={warm} min_run={min_run}"
        )
        for key, engine in engines.items()
    ]
    assert all(answer == answers[0] for answer in answers)  # far dates too


def s_request(road, fraction, duration_s, prob, delta_t_s=DELTA_TS[0]) -> Request:
    options = QueryOptions(delta_t_s=delta_t_s, algorithm="sqmb_tbs")
    return Request(SQuery(along(road, fraction), T, duration_s, prob), options)


@pytest.fixture(scope="module")
def edge_cases(engines, roads):
    """The first requests, in road order, whose ring holds at most
    ``SCALAR_EVAL_MAX_VISITS`` visits (its evaluations count as scalar) and more
    (kernel), and the first m-query with two live seeds."""
    live = roads[0]
    client = ReachabilityClient(engines[(None, None)])
    s_queries = (
        s_request(road, 0.5, duration, 0.1) for road in live for duration in (120.0, 600.0)
    )
    m_queries = (
        Request(
            MQuery((along(a, 0.5), along(b, 0.5)), T, 600.0, 0.3),
            QueryOptions(delta_t_s=DELTA_TS[0], algorithm="mqmb_tbs"),
        )
        for a, b in zip(live, live[7:])
    )
    found = {}
    for request in itertools.chain(s_queries, m_queries):
        result = client.send(request).result
        if isinstance(request.query, MQuery):
            name = "m" if result.max_region and len(result.start_segments) == 2 else None
        else:
            name = "scalar" if result.cost.scalar_probability_evals else "kernel"
        if name and result.cost.probability_waves:
            found.setdefault(name, request)
        if len(found) == 3:
            return found
    pytest.fail(f"the test city has no such requests: only {sorted(found)}")


@pytest.mark.parametrize("key", [(None, None), (8, 0), (0, None)])
def test_edge_cases_equal_serial_execution(engines, roads, edge_cases, key):
    """Each edge case as a run of its own (the request twice), then all of them
    with two s-queries at the other Δt, cold and warm."""
    live = roads[0]
    others = [s_request(live[i], 0.3, 1200.0, 0.3, DELTA_TS[1]) for i in (3, 11)]
    cases = list(edge_cases.values())
    for requests in ([case, case] for case in cases):
        assert_batch_equals_serial(engines[key], requests, False, 2, f"{key} {requests[0]}")
    for warm in (False, True):
        assert_batch_equals_serial(engines[key], cases + others, warm, 2, f"{key} warm={warm}")


def test_a_one_member_run_charges_what_send_charges(engine, roads, edge_cases):
    """A run of one bounded member — kept off by ``LOCKSTEP_MIN_RUN``, the
    per-query path being faster there — answers and charges as a cold
    ``send``: every ``QueryCost`` field but the wall time and the page ids
    the pool receives, s, m and reverse, on the test city."""
    live = roads[0]
    reverse = s_request(live[4], 0.5, 900.0, 0.2)
    reverse = dataclasses.replace(
        reverse, options=dataclasses.replace(reverse.options, direction="reverse")
    )
    client = ReachabilityClient(engine)
    for request in [*edge_cases.values(), reverse]:
        request = dataclasses.replace(
            request, options=dataclasses.replace(request.options, reuse_regions=False)
        )
        client.send(request)  # Con-Index entries, both runs share
        runs = []
        for lockstep in (False, True):
            spy = PoolSpy(engine.st_index(request.options.delta_t_s).pool)
            try:
                if lockstep:
                    with mock.patch("repro.api.client.LOCKSTEP_MIN_RUN", 1):
                        result = client.run_batch([request]).results[0]
                else:
                    result = client.send(request).result
            finally:
                spy.close()
            runs.append((
                result.segments, result.probabilities,
                dataclasses.replace(result.cost, wall_time_s=0.0), spy.ids,
            ))
        assert runs[0] == runs[1], request


def test_one_gather_per_index_and_plan_per_run(engines, roads, edge_cases):
    """A lock-step run gathers each (ST-Index, candidate plan) of its estimators
    exactly once, over distinct segments, each gather answering columns with one
    entry per requested segment, and each member's search is one wave."""
    live = roads[0]
    requests = list(edge_cases.values()) + [
        s_request(live[i], 0.5, duration, 0.2, delta_t_s)
        for i in (5, 21) for duration in (600.0, 1200.0) for delta_t_s in DELTA_TS
    ]
    gather, step = STIndex.gather_window_columns, tbs._lockstep
    runs = []

    def spied_step(network, searches):
        calls: list = []

        def spied_gather(index, segment_ids, plan):
            calls.append((id(index), plan))
            columns = gather(index, segment_ids, plan)
            keys, key_len, records, pages, page_len = columns
            assert len(set(segment_ids.tolist())) == len(segment_ids) == len(key_len)
            assert len(records) == len(page_len) == len(key_len)
            assert (len(keys), len(pages)) == (sum(key_len), sum(page_len))
            return columns

        with mock.patch.object(STIndex, "gather_window_columns", spied_gather):
            results = step(network, searches)
        sources = {
            (id(e.index), e._candidate_plan)
            for search in searches for e in search.estimators.values()
        }
        runs.append((sorted(calls), sorted(sources), max(len(r.wave_sizes) for r in results)))
        return results

    with mock.patch.object(tbs, "_lockstep", spied_step), mock.patch(
        "repro.api.client.LOCKSTEP_MIN_RUN", 2
    ):
        ReachabilityClient(engines[(None, None)]).run_batch(requests)
    assert len(runs) == 1
    calls, sources, waves = runs[0]
    assert calls == sources and len(sources) >= 4 and waves == 1


@pytest.mark.parametrize("memo", [1, 24])
def test_small_memo_answers_as_memo_off(test_dataset, engines, roads, edge_cases, memo):
    """Runs whose plans overflow a window-gather memo of ``memo`` segments (1 as
    in ``test_region_cache.py``): every ``QueryCost`` field, ``report.io`` and the
    pools' page ids equal the memo-off engine's, cold and warm, and the memo
    never holds more than ``memo`` segments."""
    network, database = test_dataset.network, test_dataset.database
    small = install(ReachabilityEngine(network, database), network, database, None, memo)
    live = roads[0]
    requests = list(edge_cases.values()) + [
        s_request(live[i], 0.5, duration, 0.2, delta_t_s)
        for i in (5, 21) for duration in (600.0, 1200.0) for delta_t_s in DELTA_TS
    ]
    for engine in (small, engines[(None, 0)]):
        run(engine, requests, False, False)  # Con-Index entries, both share
    gather, widest = STIndex.gather_window_columns, []

    def spied_gather(index, segment_ids, plan):
        widest.append(len(segment_ids))
        return gather(index, segment_ids, plan)

    for warm in (False, True):
        with mock.patch.object(STIndex, "gather_window_columns", spied_gather):
            got = run(small, requests, warm, True, 2)
        want = run(engines[(None, 0)], requests, warm, True, 2)
        assert max(widest) > memo
        assert [summary(r) for r in got[0]] == [summary(r) for r in want[0]]
        assert got[1].io == want[1].io and got[2] == want[2]
        for delta_t_s in DELTA_TS:
            index = small.st_index(delta_t_s)
            held = [1 if p is None else p.entries for p in index._window_gathers.values()]
            assert sum(held) <= memo


def test_stream_publishes_each_response_at_its_pull(engines, roads):
    live = roads[0]
    requests = [
        Request(SQuery(along(live[i], 0.5), T, 600.0, 0.2)) for i in range(0, 40, 8)
    ]
    engine = engines[(None, None)]
    with mock.patch("repro.api.client.LOCKSTEP_MIN_RUN", 2):  # five members: one run
        stream = ReachabilityClient(engine).stream(requests)
        for pulled, response in enumerate(stream, start=1):
            assert response.sequence == pulled - 1
            assert len(stream.responses) == pulled


def test_failing_member_raises_at_its_own_pull(engines, roads):
    """A member whose front half raises does so at its pull: earlier
    members were yielded with the serial answers, later ones still run,
    and the pool saw what serial execution charges (the failing member's
    fixed sides included)."""
    live = roads[0]
    requests = [
        Request(SQuery(along(live[i], 0.5), T, 777.0 if i == 16 else 600.0, 0.2))
        for i in range(0, 40, 8)
    ]
    engine = engines[(8, None)]
    region = ExecutionContext.bounding_region

    def failing(self, strategy, seeds, start_time_s, duration_s):
        if duration_s == 777.0:
            raise RuntimeError("bounding region unavailable")
        return region(self, strategy, seeds, start_time_s, duration_s)

    ReachabilityClient(engine).run_batch(requests)  # Con-Index entries, both share
    runs = []
    for lockstep in (True, False):
        spy = PoolSpy(engine.st_index(DELTA_TS[0]).pool)
        try:
            with mock.patch.object(ExecutionContext, "bounding_region", failing), (
                mock.patch("repro.api.client.LOCKSTEP_MIN_RUN", 2) if lockstep
                else mock.patch("repro.api.client.LOCKSTEP", frozenset())
            ):
                stream = ReachabilityClient(engine).stream(requests)
                first = [next(stream), next(stream)]
                with pytest.raises(RuntimeError, match="unavailable"):
                    next(stream)
                rest = list(stream)
        finally:
            spy.close()
        responses = first + rest
        assert [response.sequence for response in responses] == [0, 1, 3, 4]
        runs.append(([summary(r) for r in responses], stream.report.io, spy.ids))
    assert runs[0] == runs[1]
