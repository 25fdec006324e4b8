"""Generated m-query wave accounting: the batched multi-seed trace-back
wave against the scalar reference, across pool and memo sizes.

An m-query's wave is evaluated as one uncharged road gather, one probe per
seed, a replay of the scalar claimer-then-fallback consultation order and
one buffer-pool charge.  For m-queries of 2-4 locations on the test city —
two points on one road, points on both carriageways of a two-way road, a
start road nothing left in the departure window — under every ST-Index
pool capacity in {0, 1, 8, default} and window-gather memo size in {0,
default}, the live path must match ``legacy_probability_path()``: the
region and every probability, the cost counters, the ``DiskStats``
window (evictions included) and the page-id sequence the pool receives.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from reference.legacy_probability import legacy_probability_path

from benchmarks.client_protocol import m_query
from repro.core.engine import ReachabilityEngine
from repro.core.probability import ProbabilityEstimator
from repro.core.query import MQuery
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


def traced(engine, query):
    """One cold m-query, the page-id sequence its ST-Index pool was asked
    for and how many records it read one at a time (``PageStore.read``)."""
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
        result = m_query(engine, query, algorithm="mqmb_tbs", delta_t_s=DELTA_T)
    finally:
        spy.close()
        del index._store.read
    return result, spy.ids, records


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_multi_seed_waves_charge_like_the_scalar_loop(engines, roads, data):
    query = data.draw(m_queries(roads))
    shapes = set()
    for (pool, memo), engine in engines.items():
        # Warm the Con-Index entries both measured runs then share.
        m_query(engine, query, algorithm="mqmb_tbs", delta_t_s=DELTA_T)
        with legacy_probability_path():
            legacy, legacy_ids, legacy_records = traced(engine, query)
        live, live_ids, live_records = traced(engine, query)
        where = f"pool={pool} memo={memo} {query}"
        assert live.segments == legacy.segments, where
        assert live.probabilities == legacy.probabilities, where
        assert live_ids == legacy_ids, where
        assert live_records == 0, where  # every live read is a wave gather
        cost, reference = live.cost, legacy.cost
        assert cost.io == reference.io, where
        assert cost.simulated_io_ms == reference.simulated_io_ms, where
        assert cost.probability_checks == reference.probability_checks, where
        assert cost.segments_expanded == reference.segments_expanded, where
        assert cost.pool_lock_shards == reference.pool_lock_shards, where
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


def consult_one_at_a_time(estimators, claims, prob, wave):
    """The scalar loop's consultation order, one segment at a time."""
    default = next(iter(estimators.values()))
    values = []
    for segment_id in wave:
        first = estimators.get(claims.get(segment_id), default)
        value = first.probability(segment_id)
        for estimator in estimators.values():
            if value >= prob:
                break
            if estimator is not first:
                value = max(value, estimator.probability(segment_id))
        values.append(value)
    return values


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wave_routine_replays_any_claims(engines, roads, data):
    """The wave routine alone, under claims TBS never produces — the two
    carriageways of a road claimed by different seeds, claims naming a
    seed outside the peers, repeated segments — against the legacy
    estimators consulted one segment at a time."""
    from reference.legacy_probability import LegacyProbabilityEstimator

    live, dead, two_way, network = roads
    engine = engines[(8, None)]
    index = engine.st_index(DELTA_T)
    ids = [segment.segment_id for segment in live + dead]
    seeds = data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=3, unique=True))
    wave = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=30))
    wave += [network.segment(s).twin_id for s in wave[:5] if network.segment(s).twin_id is not None]
    claims = {
        segment_id: data.draw(st.sampled_from(seeds + [-1]))
        for segment_id in data.draw(st.lists(st.sampled_from(wave), unique=True))
    }
    # Both carriageways of one road in the wave, claimed by different seeds.
    road = data.draw(st.sampled_from(two_way))
    wave[len(wave) // 2 : len(wave) // 2] = [road.segment_id, road.twin_id]
    claims[road.segment_id], claims[road.twin_id] = seeds[0], seeds[1]
    prob = data.draw(st.sampled_from([0.05, 0.3, 1.0]))
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
                values = lead.probabilities(wave, estimators, claims, prob)
            else:
                values = consult_one_at_a_time(estimators, claims, prob, wave)
        finally:
            spy.close()
        checks = [estimator.checks for estimator in estimators.values()]
        caches = [estimator._cache for estimator in estimators.values()]
        runs.append((values, checks, caches, spy.ids))
    assert runs[0] == runs[1]
