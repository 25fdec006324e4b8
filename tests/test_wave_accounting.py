"""Generated trace-back accounting: the ring probe against the scalar
reference, across pool and memo sizes, and the pages it charges against
the pages it reads.

A bounded send reads its seeds' fixed sides in one gather and one charge,
then gathers the trace-back's ring (Bmax ∪ Bmin) once, probes each live
seed against it once and charges the ring's pages once, in gather order —
each road once, however many seeds value it.  For generated s-queries,
reverse queries and m-queries of 2-4 locations on the test city — two
points on one road, points on both carriageways of a two-way road, a
start road nothing left in the departure window — under every ST-Index
pool capacity in {0, 1, 8, default} and window-gather memo size in {0,
default}, the live path must match ``legacy_probability_path()``: the
region and every probability, the cost counters, the ``DiskStats``
window (evictions included), the page-id sequence the pool receives and
the wave shape.  A checking disk then finds that a cold bounded query —
s, m and reverse, serial and in lock step — charges exactly the pages it
reads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference.legacy_probability import (
    LegacyProbabilityEstimator,
    best_of_seeds,
    legacy_probability_path,
)

from benchmarks.client_protocol import m_query, r_query, request, s_query
from repro.api import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.core.probability import ProbabilityEstimator
from repro.core.query import MQuery, SQuery
from repro.core.st_index import STIndex
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

T = float(day_time(11))
DELTA_T = 300
POOL_SIZES = (0, 1, 8, None)  # None: the engine's default
MEMO_SIZES = (0, None)  # None: the ST-Index default


class PoolSpy:
    """The flattened page-id sequence a buffer pool is asked for."""

    def __init__(self, pool) -> None:
        self.pool = pool
        self.ids: list[int] = []
        self._batched = False
        get_page, get_pages = pool.get_page, pool.get_pages

        def spy_page(page_id):
            if not self._batched:  # get_pages hands singletons to get_page
                self.ids.append(page_id)
            return get_page(page_id)

        def spy_pages(page_ids):
            page_ids = list(page_ids)
            self.ids.extend(page_ids)
            self._batched = True
            try:
                return get_pages(page_ids)
            finally:
                self._batched = False

        pool.get_page, pool.get_pages = spy_page, spy_pages

    def close(self) -> None:
        del self.pool.get_page, self.pool.get_pages


@pytest.fixture(scope="module")
def engines(test_dataset):
    """One engine per (pool capacity, memo size), its ST-Index sized so."""
    network, database = test_dataset.network, test_dataset.database
    out = {}
    for pool in POOL_SIZES:
        for memo in MEMO_SIZES:
            engine = ReachabilityEngine(network, database)
            index = STIndex(
                network,
                DELTA_T,
                disk=engine.disk,
                buffer_pool_pages=engine.buffer_pool_pages if pool is None else pool,
                **({} if memo is None else {"record_cache_size": memo}),
            )
            index.build(database)
            engine.install_st_index(DELTA_T, index)
            out[(pool, memo)] = engine
    return out


@pytest.fixture(scope="module")
def roads(test_dataset):
    """Start roads split by whether anything left them in the departure
    window at ``T``, plus the two-way ones."""
    network, database = test_dataset.network, test_dataset.database
    index = STIndex(network, DELTA_T)
    index.build(database)
    segments = sorted(network.segments(), key=lambda segment: segment.segment_id)
    live, dead = [], []
    for segment in segments:
        estimator = ProbabilityEstimator(
            index, segment.segment_id, T, 600.0, database.num_days
        )
        (live if estimator.start_days else dead).append(segment)
    assert live and dead
    two_way = [segment for segment in live if segment.twin_id is not None]
    return live, dead, two_way, network


def along(segment, fraction: float) -> Point:
    a, b = segment.shape[0], segment.shape[-1]
    return Point(a.x + fraction * (b.x - a.x), a.y + fraction * (b.y - a.y))


@st.composite
def m_queries(draw, roads):
    live, dead, two_way, network = roads
    fraction = st.floats(0.1, 0.9)
    points = [along(draw(st.sampled_from(live)), draw(fraction)) for _ in range(2)]
    if draw(st.booleans()):  # two points on one road
        road = draw(st.sampled_from(live))
        points[1:1] = [along(road, draw(fraction)), along(road, draw(fraction))]
    if draw(st.booleans()):  # both carriageways of a two-way road
        road = draw(st.sampled_from(two_way))
        points.append(along(road, draw(fraction)))
        points.append(along(network.segment(road.twin_id), draw(fraction)))
    if draw(st.booleans()):  # a start road nothing left in the window
        points.insert(draw(st.integers(0, 1)), along(draw(st.sampled_from(dead)), 0.5))
    return MQuery(
        tuple(points[:4]),
        T + draw(st.sampled_from([0.0, 130.0])),
        draw(st.sampled_from([600.0, 1200.0])),
        draw(st.sampled_from([0.1, 0.3])),
    )


@st.composite
def one_location_queries(draw, roads):
    """An s-query, sent forward or reverse, from a point on any road."""
    live, dead, _, _ = roads
    road = draw(st.sampled_from(live + dead[:3]))
    query = SQuery(
        along(road, draw(st.floats(0.1, 0.9))),
        T + draw(st.sampled_from([0.0, 130.0])),
        draw(st.sampled_from([600.0, 1200.0])),
        draw(st.sampled_from([0.1, 0.3])),
    )
    return draw(st.sampled_from("sr")), query


def traced(engine, query, kind="m"):
    """One cold bounded query, the page-id sequence its ST-Index pool was
    asked for and how many records it read one at a time
    (``PageStore.read``)."""
    index = engine.st_index(DELTA_T)
    spy = PoolSpy(index.pool)
    records = 0
    read = index._store.read

    def counted_read(pointer, pool=None):
        nonlocal records
        records += 1
        return read(pointer, pool)

    index._store.read = counted_read
    try:
        send, algorithm = SENDS[kind]
        result = send(engine, query, algorithm=algorithm, delta_t_s=DELTA_T)
    finally:
        spy.close()
        del index._store.read
    return result, spy.ids, records


SENDS = {"m": (m_query, "mqmb_tbs"), "s": (s_query, "sqmb_tbs"), "r": (r_query, "sqmb_tbs")}


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_multi_seed_waves_charge_like_the_scalar_loop(engines, roads, data):
    assert_waves_charge_like_the_scalar_loop(engines, "m", data.draw(m_queries(roads)))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_one_seed_and_reverse_waves_charge_like_the_scalar_loop(engines, roads, data):
    assert_waves_charge_like_the_scalar_loop(engines, *data.draw(one_location_queries(roads)))


def assert_waves_charge_like_the_scalar_loop(engines, kind, query):
    shapes = set()
    for (pool, memo), engine in engines.items():
        # Warm the Con-Index entries both measured runs then share.
        traced(engine, query, kind)
        with legacy_probability_path():
            legacy, legacy_ids, legacy_records = traced(engine, query, kind)
        live, live_ids, live_records = traced(engine, query, kind)
        where = f"pool={pool} memo={memo} {kind} {query}"
        assert live.segments == legacy.segments, where
        assert live.probabilities == legacy.probabilities, where
        assert live_ids == legacy_ids, where
        assert live_records == 0, where  # every live read is a wave gather
        cost, reference = live.cost, legacy.cost
        assert cost.io == reference.io, where
        assert cost.simulated_io_ms == reference.simulated_io_ms, where
        assert cost.probability_checks == reference.probability_checks, where
        assert cost.segments_expanded == reference.segments_expanded, where
        # The reference is all-scalar and reads record by record; the live
        # path splits the same evaluations between kernel and scalar probe,
        # and gathers exactly the records and page accesses it read.
        assert (
            cost.kernel_probability_evals + cost.scalar_probability_evals
            == reference.scalar_probability_evals
        ), where
        assert cost.batched_record_reads == legacy_records, where
        assert cost.prefetched_pages == len(legacy_ids), where
        # The reference records waves of one; the live wave shape (and the
        # kernel/scalar split) must not depend on pool or memo size.
        shapes.add(
            (
                cost.probability_waves,
                cost.max_wave_size,
                cost.kernel_probability_evals,
            )
        )
    assert len(shapes) == 1, shapes


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_peer_routine_values_any_candidates(engines, roads, data):
    """The routine alone, with two or three seeds (one of them perhaps with
    no departures), under candidates TBS never produces — repeated segments,
    a road's carriageways apart — against the legacy estimators valuing one
    segment at a time."""
    live, dead, two_way, network = roads
    engine = engines[(8, None)]
    index = engine.st_index(DELTA_T)
    ids = [segment.segment_id for segment in live + dead]
    seeds = data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=3, unique=True))
    wave = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=30))
    wave += [network.segment(s).twin_id for s in wave[:5] if network.segment(s).twin_id is not None]
    road = data.draw(st.sampled_from(two_way))
    wave[len(wave) // 2 : len(wave) // 2] = [road.segment_id, road.twin_id]
    duration = data.draw(st.sampled_from([200.0, 900.0]))
    runs = []
    for estimator_cls in (LegacyProbabilityEstimator, ProbabilityEstimator):
        index.pool.invalidate()
        estimators = {
            seed: estimator_cls(index, seed, T, duration, engine.database.num_days)
            for seed in seeds
        }
        spy = PoolSpy(index.pool)
        try:
            if estimator_cls is ProbabilityEstimator:
                lead = next(iter(estimators.values()))
                values = lead.probabilities(wave, estimators)
            else:
                values = best_of_seeds(estimators, wave)
        finally:
            spy.close()
        checks = [estimator.checks for estimator in estimators.values()]
        caches = [estimator._cache for estimator in estimators.values()]
        runs.append((values, checks, caches, spy.ids))
    assert runs[0] == runs[1]


def gather_plans(engine, kind, query):
    """The window plan of every ST-Index gather one cold bounded send makes,
    and its result."""
    index = engine.st_index(DELTA_T)
    plans = []
    gather = index.gather_window_columns

    def spy(segment_ids, plan):
        plans.append(plan)
        return gather(segment_ids, plan)

    index.gather_window_columns = spy
    try:
        send, algorithm = SENDS[kind]
        result = send(engine, query, algorithm=algorithm, delta_t_s=DELTA_T)
    finally:
        del index.gather_window_columns
    return plans, result


@pytest.mark.parametrize("kind", ["s", "r", "m"])
def test_a_cold_bounded_send_gathers_once_per_plan(engines, roads, kind):
    """One gather of every seed's fixed side, then one of the trace-back's
    ring, however many seeds the send has: one wave."""
    live, _, two_way, _ = roads
    engine = engines[(None, None)]
    index = engine.st_index(DELTA_T)
    departure, window = (T, T + 300.0), (T, T + 900.0)
    fixed, candidate = (window, departure) if kind == "r" else (departure, window)
    waves = []
    for road in live[::7]:
        point = along(road, 0.5)
        if kind == "m":
            other = two_way[(road.segment_id * 5) % len(two_way)]
            query = MQuery((point, along(other, 0.3)), T, 900.0, 0.3)
        else:
            query = SQuery(point, T, 900.0, 0.3)
        plans, result = gather_plans(engine, kind, query)
        if result.max_region is None or result.max_region.cover == result.min_region.cover:
            continue  # no live seed, or an empty ring: nothing to trace back
        if kind == "m" and len(result.start_segments) < 2:
            continue
        assert plans == [index.window_plan(*fixed), index.window_plan(*candidate)], query
        waves.append(result.cost.probability_waves)
    assert len(waves) >= 3 and set(waves) == {1}, waves


class DiskSpy:
    """A checking disk: the set of pages its extent and page reads touch."""

    def __init__(self, disk) -> None:
        self.disk, self.pages = disk, set()
        extent_bytes, read_page, size = disk.extent_bytes, disk.read_page, disk.page_size

        def spy_extent(first_pages, offsets, lengths):
            first, offset, length = (
                np.asarray(column, dtype=np.int64) for column in (first_pages, offsets, lengths)
            )
            last = first + (offset + length - 1) // size
            for page, end in zip((first + offset // size).tolist(), last.tolist()):
                self.pages.update(range(page, end + 1))
            return extent_bytes(first_pages, offsets, lengths)

        def spy_page(page_id):
            self.pages.add(page_id)
            return read_page(page_id)

        disk.extent_bytes, disk.read_page = spy_extent, spy_page

    def close(self) -> None:
        del self.disk.extent_bytes, self.disk.read_page


@pytest.mark.parametrize("lockstep", [False, True])
@pytest.mark.parametrize("pool", [0, None])
def test_a_cold_bounded_query_charges_the_pages_it_reads(engines, roads, pool, lockstep):
    """Every page a cold bounded query reads from disk — s, m and reverse,
    sent alone or in one lock-step batch — is a page it charges through the
    pool, and the other way round.  The window-gather memo is off: a plan it
    holds is charged without a read (``docs/invariants.md``)."""
    live, _, two_way, _ = roads
    engine = engines[(pool, 0)]
    index = engine.st_index(DELTA_T)
    requests = [
        request(query, algorithm, delta_t_s=DELTA_T, direction=direction)
        for road, other in zip(live[::9], two_way[3::5])
        for query, algorithm, direction in (
            (SQuery(along(road, 0.5), T, 900.0, 0.2), "sqmb_tbs", "forward"),
            (SQuery(along(road, 0.5), T, 900.0, 0.2), "sqmb_tbs", "reverse"),
            (MQuery((along(road, 0.5), along(other, 0.3)), T, 1200.0, 0.1), "mqmb_tbs", "forward"),
        )
    ]
    client = ReachabilityClient(engine)
    client.run_batch(requests)  # Con-Index entries, both runs share
    batches = [requests] if lockstep else [[r] for r in requests]
    for batch in batches:
        index.pool.invalidate()
        disk, spy = DiskSpy(engine.disk), PoolSpy(index.pool)
        try:
            client.run_batch(batch)
        finally:
            spy.close()
            disk.close()
        assert disk.pages and disk.pages == set(spy.ids), batch[0].query


