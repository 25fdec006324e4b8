"""Tests for batches and single sends through a shared :class:`QueryService`."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchmarks.client_protocol import m_query, request, run_batch, s_query
from repro.api import ReachabilityClient
from repro.core.query import MQuery, QueryCost, SQuery
from repro.core.service import QueryService, as_service
from repro.eval import config
from repro.eval.workload import QueryWorkload
from repro.spatial.geometry import Point
from repro.storage.disk import DiskStats
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


@pytest.fixture(scope="module")
def service(engine):
    return QueryService(engine)


@pytest.fixture(scope="module")
def fig48_queries(test_dataset):
    """The Fig 4.8(a)-style m-query workload on the test dataset."""
    locations = tuple(
        loc for loc in config.M_QUERY_LOCATIONS[:3]
    )
    return [MQuery(locations, T, duration_s, 0.2) for duration_s in (600, 1200, 1800)]


class TestSingleQueries:
    def test_s_query_matches_engine(self, engine, service):
        query = SQuery(CENTER, T, 600, 0.2)
        via_service = s_query(service, query)
        via_engine = s_query(engine, query)
        assert via_service.segments == via_engine.segments
        assert via_service.start_segments == via_engine.start_segments

    def test_query_dispatches_on_type(self, service):
        client = ReachabilityClient(service)
        m = MQuery((CENTER,), T, 600, 0.2)
        s = SQuery(CENTER, T, 600, 0.2)
        assert client.plan(request(m))[0].kind == "m"
        assert client.plan(request(s))[0].kind == "s"
        assert m_query(client, m).segments == s_query(client, s).segments

    def test_r_query_kind(self, service):
        plan, _ = ReachabilityClient(service).plan(
            request(SQuery(CENTER, T, 600, 0.2), direction="reverse")
        )
        assert plan.kind == "r"
        assert plan.bounding_strategy == "reverse"

    def test_as_service_idempotent(self, engine, service):
        assert as_service(service) is service
        assert as_service(engine).engine is engine


class TestBatches:
    def test_empty_batch(self, service):
        report = run_batch(service, [])
        assert report.results == []
        assert report.page_reads == 0

    def test_batch_equivalent_and_fewer_reads_than_sequential(
        self, engine, service, fig48_queries
    ):
        """The acceptance workload: same result sets, fewer page reads."""
        sequential = [m_query(engine, q) for q in fig48_queries]
        sequential_reads = sum(r.cost.io.page_reads for r in sequential)
        report = run_batch(service, fig48_queries)
        assert [r.segments for r in report.results] == [
            r.segments for r in sequential
        ]
        assert [r.probabilities for r in report.results] == [
            r.probabilities for r in sequential
        ]
        assert 0 < report.io.page_reads < sequential_reads
        # Warm pools inside the batch mean hits were served cache-side.
        assert report.io.pool_hits > 0

    def test_batch_dedups_shared_bounding_regions(self, engine):
        """Same seeds + slot + duration at different thresholds: the
        bounding regions are computed once and reused."""
        fresh = QueryService(engine)
        base = MQuery(tuple(config.M_QUERY_LOCATIONS[:3]), T, 1200, 0.2)
        batch = [
            MQuery(base.locations, T, 1200, prob)
            for prob in (0.2, 0.4, 0.6)
        ]
        report = run_batch(fresh, batch)
        # One far + one near region for the shared shape; the other two
        # queries reuse both.
        assert report.regions_computed == 2
        assert report.regions_reused == 4
        sequential = [m_query(engine, q) for q in batch]
        assert [r.segments for r in report.results] == [
            r.segments for r in sequential
        ]

    def test_regions_shared_across_batches(self, engine):
        """The region cache outlives one batch: a repeat batch computes
        nothing and serves every bound from the service-lifetime LRU."""
        fresh = QueryService(engine)
        batch = [SQuery(CENTER, T, 600, p) for p in (0.2, 0.5)]
        first = run_batch(fresh, batch)
        assert first.regions_computed == 2  # far + near, shared shape
        assert first.regions_reused == 2
        second = run_batch(fresh, batch)
        assert second.regions_computed == 0
        assert second.regions_reused == 4
        assert [r.segments for r in second.results] == [
            r.segments for r in first.results
        ]

    def test_batch_reuses_plans(self, service):
        batch = [SQuery(CENTER, T, 600, p) for p in (0.2, 0.4, 0.8)]
        report = run_batch(service, batch)
        assert report.plans_reused == 2
        assert report.plans[0] is report.plans[1] is report.plans[2]

    def test_mixed_kind_batch(self, service):
        batch = [
            SQuery(CENTER, T, 600, 0.2),
            MQuery((CENTER, Point(1000.0, 1000.0)), T, 600, 0.2),
        ]
        report = run_batch(service, batch)
        assert report.plans[0].kind == "s"
        assert report.plans[1].kind == "m"
        assert len(report.results) == 2

    def test_worker_pool_matches_sequential_batch(self, service, fig48_queries):
        solo = run_batch(service, fig48_queries)
        threaded = run_batch(service, fig48_queries, max_workers=4)
        assert [r.segments for r in threaded.results] == [
            r.segments for r in solo.results
        ]

    def test_threaded_batch_counters_exact(self, engine):
        """Under max_workers > 1 the dedup counters stay exact: every
        bounding_region call is counted once, and each distinct region is
        computed exactly once (concurrent requesters wait, not recompute)."""
        fresh = QueryService(engine)
        durations = (600, 900, 1200, 1500)
        batch = [
            SQuery(CENTER, T, duration, prob)
            for duration in durations
            for prob in (0.2, 0.4, 0.8)
        ]
        report = run_batch(fresh, batch, max_workers=8)
        calls = 2 * len(batch)  # one far + one near region per query
        assert report.regions_computed + report.regions_reused == calls
        # 4 distinct (seeds, slot, steps) shapes x far/near.
        assert report.regions_computed == 2 * len(durations)
        assert report.regions_reused == calls - 2 * len(durations)
        # A second threaded pass is served entirely from the service cache.
        again = run_batch(fresh, batch, max_workers=8)
        assert again.regions_computed == 0
        assert again.regions_reused == calls

    def test_batch_report_rows(self, service):
        report = run_batch(service, [SQuery(CENTER, T, 600, 0.2)])
        rows = dict(report.as_rows())
        assert rows["Queries"] == "1"
        assert "hit rate" in rows["Buffer pool"]

    def test_random_workload_batch(self, test_dataset, service):
        workload = QueryWorkload(test_dataset.network, seed=3)
        batch = workload.mixed_batch(4, 2, start_time_s=T)
        report = run_batch(service, batch)
        assert len(report.results) == 6
        assert report.total_cost_ms > 0

    def test_run_workload_batch_and_formatting(self, engine, test_dataset):
        from repro.eval.tables import format_batch_report

        workload = QueryWorkload(test_dataset.network, seed=5)
        report = run_batch(engine, workload.s_queries(3, start_time_s=T))
        assert len(report.results) == 3
        table = format_batch_report("throughput batch", report)
        assert "Page reads" in table and "Buffer pool" in table
        assert "hit rate" in dict(report.as_rows())["Buffer pool"]


# -- the one cost merge -------------------------------------------------------

MAX_MERGED = {"max_wave_size", "pool_lock_shards"}

# Dyadic floats: sums are exact, so associativity is an equality.
_amounts = st.integers(0, 1 << 20).map(lambda n: n / 64)


@st.composite
def costs(draw):
    def value_for(spec):
        if spec.type == "DiskStats":
            return DiskStats(
                **{f.name: draw(st.integers(0, 1 << 20)) for f in fields(DiskStats)}
            )
        return draw(_amounts if spec.type == "float" else st.integers(0, 1 << 20))

    return QueryCost(**{spec.name: value_for(spec) for spec in fields(QueryCost)})


class TestQueryCostMerged:
    def test_every_field_declares_a_known_rule(self):
        """A counter added without thought still merges (it sums); one
        that declares a rule must declare a callable this test knows."""
        for spec in fields(QueryCost):
            rule = spec.metadata.get("merge")
            assert rule is (max if spec.name in MAX_MERGED else None), spec.name

    def test_identity_on_nothing(self):
        assert QueryCost.merged([]) == QueryCost()

    @given(st.lists(costs(), max_size=5))
    def test_equals_field_by_field_sums_and_maxima(self, batch):
        merged = QueryCost.merged(batch)
        for spec in fields(QueryCost):
            values = [getattr(cost, spec.name) for cost in batch]
            if spec.name in MAX_MERGED:
                expected = max(values, default=0)
            else:
                expected = sum(values, type(getattr(QueryCost(), spec.name))())
            assert getattr(merged, spec.name) == expected, spec.name

    @given(costs(), costs(), costs())
    def test_associative(self, a, b, c):
        merged = QueryCost.merged
        assert merged([merged([a, b]), c]) == merged([a, merged([b, c])])
        assert merged([a, b, c]) == merged([merged([a, b]), c])

    def test_batch_report_cost_is_the_merge(self, service):
        report = run_batch(
            service, [SQuery(CENTER, T, 600, 0.2), SQuery(CENTER, T, 900, 0.2)]
        )
        assert report.cost == QueryCost.merged(r.cost for r in report.results)
        assert report.cost.max_wave_size == max(
            r.cost.max_wave_size for r in report.results
        )
