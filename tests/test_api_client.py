"""Tests for the request/response client: envelopes, streaming, batches.

Covers the acceptance criteria of the client-API redesign:

* ``stream()`` yields responses incrementally with batch totals (page
  reads, regions computed/reused) matching ``run_batch`` on the fig-4.8
  workload;
* mixed batches may contain reverse queries (per-request ``direction``),
  each matching its sequential equivalent;
* single queries run through the service-lifetime region cache
  (``regions_reused`` increments across repeated sends).
"""

import warnings

import pytest

from benchmarks.client_protocol import run_batch, s_query
from repro.api import (
    QueryOptions,
    ReachabilityClient,
    Request,
    Response,
    as_client,
)
from repro.core.query import MQuery, SQuery
from repro.core.service import QueryService
from repro.eval import config
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


@pytest.fixture()
def client(engine):
    return ReachabilityClient(engine)


@pytest.fixture(scope="module")
def fig48_requests(test_dataset):
    """The Fig 4.8(a)-style m-query workload as client requests."""
    locations = tuple(loc for loc in config.M_QUERY_LOCATIONS[:3])
    return [
        Request(MQuery(locations, T, duration_s, 0.2))
        for duration_s in (600, 1200, 1800)
    ]


class TestEnvelopes:
    def test_options_validate_direction(self):
        with pytest.raises(ValueError):
            QueryOptions(direction="sideways")

    def test_options_validate_budget(self):
        with pytest.raises(ValueError):
            QueryOptions(cost_budget_ms=-1.0)

    def test_reverse_m_query_rejected(self):
        with pytest.raises(ValueError):
            Request(
                MQuery((CENTER,), T, 600, 0.2),
                QueryOptions(direction="reverse"),
            )

    def test_request_kind(self):
        assert Request(SQuery(CENTER, T, 600, 0.2)).kind == "s"
        assert Request(MQuery((CENTER,), T, 600, 0.2)).kind == "m"
        assert (
            Request(
                SQuery(CENTER, T, 600, 0.2), QueryOptions(direction="reverse")
            ).kind
            == "r"
        )

    def test_request_frozen_and_hashable(self):
        request = Request(SQuery(CENTER, T, 600, 0.2))
        with pytest.raises(AttributeError):
            request.query = None
        assert hash(request) == hash(Request(SQuery(CENTER, T, 600, 0.2)))

    def test_non_query_rejected(self):
        with pytest.raises(TypeError):
            Request("not a query")


class TestSend:
    def test_send_matches_forced_engine_path(self, engine, client):
        query = SQuery(CENTER, T, 600, 0.2)
        response = client.send(
            Request(query, QueryOptions(algorithm="sqmb_tbs"))
        )
        classic = s_query(engine, query)
        assert response.segments == classic.segments
        assert response.plan.algorithm == "sqmb_tbs"

    def test_send_accepts_bare_query(self, client):
        response = client.send(SQuery(CENTER, T, 600, 0.2))
        assert isinstance(response, Response)
        assert response.route.rule == "paper-s"

    def test_single_queries_reuse_cached_regions(self, engine):
        """Regression: single sends share the service-lifetime region
        cache instead of re-expanding bounds the cache already holds."""
        client = ReachabilityClient(engine)
        request = Request(SQuery(CENTER, T, 600, 0.2))
        first = client.send(request)
        assert first.regions_computed == 2  # far + near
        assert first.regions_reused == 0
        second = client.send(request)
        assert second.regions_computed == 0
        assert second.regions_reused == 2
        assert second.segments == first.segments
        # A different threshold still shares the shape-keyed bounds.
        third = client.send(Request(SQuery(CENTER, T, 600, 0.8)))
        assert third.regions_computed == 0
        assert third.regions_reused == 2

    def test_reuse_regions_opt_out(self, engine):
        """The paper's cold protocol stays expressible per request."""
        client = ReachabilityClient(engine)
        request = Request(
            SQuery(CENTER, T, 600, 0.2), QueryOptions(reuse_regions=False)
        )
        client.send(request)
        repeat = client.send(request)
        assert repeat.regions_computed == 2
        assert repeat.regions_reused == 0

    def test_budget_reported(self, client):
        cheap = client.send(
            Request(
                SQuery(CENTER, T, 600, 0.2),
                QueryOptions(cost_budget_ms=1e9),
            )
        )
        assert cheap.within_budget is True
        tight = client.send(
            Request(
                SQuery(CENTER, T, 600, 0.2),
                QueryOptions(cost_budget_ms=1e-6),
            )
        )
        assert tight.within_budget is False
        unbudgeted = client.send(Request(SQuery(CENTER, T, 600, 0.2)))
        assert unbudgeted.within_budget is None

    def test_submit_futures(self, engine):
        with ReachabilityClient(engine) as client:
            futures = [
                client.submit(Request(SQuery(CENTER, T, 600, prob)))
                for prob in (0.2, 0.4, 0.8)
            ]
            responses = [future.result() for future in futures]
        direct = ReachabilityClient(engine)
        for response, prob in zip(responses, (0.2, 0.4, 0.8)):
            expected = direct.send(Request(SQuery(CENTER, T, 600, prob)))
            assert response.segments == expected.segments

    def test_explain_carries_route(self, client):
        explanation = client.explain(Request(SQuery(CENTER, T, 600, 0.2)))
        assert explanation.route is not None
        assert explanation.route.algorithm == "sqmb_tbs"
        assert "route:" in explanation.to_text()
        assert explanation.stages  # staged decomposition ran
        # Non-paper routes still explain the plan and decision.
        sub_slot = client.explain(Request(SQuery(CENTER, T, 60, 0.2)))
        assert sub_slot.route.algorithm == "es"
        assert sub_slot.plan.algorithm == "es"


class TestStream:
    def test_stream_yields_incrementally_with_matching_totals(
        self, engine, fig48_requests
    ):
        """The acceptance workload: stream == run_batch, delivered one
        response at a time."""
        batch_client = ReachabilityClient(engine)
        report = batch_client.run_batch(fig48_requests)

        stream_client = ReachabilityClient(engine)
        stream = stream_client.stream(fig48_requests)
        seen = []
        for response in stream:
            seen.append(response)
            # Incremental delivery: responses so far are visible before
            # the stream is exhausted.
            assert len(stream.responses) == len(seen)
        assert [r.sequence for r in seen] == list(range(len(fig48_requests)))
        assert [r.segments for r in seen] == [
            r.segments for r in report.results
        ]
        totals = stream.report
        assert totals.page_reads == report.page_reads
        assert totals.regions_computed == report.regions_computed
        assert totals.regions_reused == report.regions_reused
        assert totals.plans_reused == report.plans_reused
        assert totals.simulated_io_ms == report.simulated_io_ms

    def test_mixed_direction_batch_matches_sequential(self, engine):
        """Regression: one batch freely mixes s/m/reverse queries, each
        matching its sequential single-query equivalent."""
        requests = [
            Request(SQuery(CENTER, T, 600, 0.2)),
            Request(
                SQuery(Point(400.0, 300.0), T, 900, 0.2),
                QueryOptions(direction="reverse"),
            ),
            Request(MQuery((CENTER, Point(1000.0, 800.0)), T, 600, 0.2)),
            Request(
                SQuery(CENTER, T, 600, 0.4),
                QueryOptions(direction="reverse"),
            ),
        ]
        report = ReachabilityClient(engine).run_batch(requests)
        sequential = [
            ReachabilityClient(engine).send(request) for request in requests
        ]
        assert [r.segments for r in report.results] == [
            r.segments for r in sequential
        ]
        kinds = [plan.kind for plan in report.plans]
        assert kinds == ["s", "r", "m", "r"]
        assert [route.kind for route in report.routes] == kinds

    def test_threaded_stream_matches_serial(self, engine, fig48_requests):
        serial = ReachabilityClient(engine).run_batch(fig48_requests)
        threaded_client = ReachabilityClient(engine)
        stream = threaded_client.stream(
            fig48_requests, max_workers=4, window=2 * 4
        )
        responses = sorted(stream, key=lambda r: r.sequence)
        assert [r.segments for r in responses] == [
            r.segments for r in serial.results
        ]
        assert (
            stream.report.regions_computed + stream.report.regions_reused
            == serial.regions_computed + serial.regions_reused
        )

    def test_stream_mixed_delta_t(self, engine):
        """Per-request Δt rides in the envelope; contexts stay per-Δt."""
        requests = [
            Request(SQuery(CENTER, T, 600, 0.2), QueryOptions(delta_t_s=300)),
            Request(SQuery(CENTER, T, 600, 0.2), QueryOptions(delta_t_s=600)),
        ]
        report = ReachabilityClient(engine).run_batch(requests)
        assert [plan.delta_t_s for plan in report.plans] == [300, 600]
        assert len(report.results) == 2

    def test_empty_stream(self, client):
        stream = client.stream([])
        assert list(stream) == []
        assert stream.report.results == []
        assert stream.report.page_reads == 0

    def test_stream_propagates_executor_errors(self, engine):
        client = ReachabilityClient(engine)
        bad = Request(
            SQuery(CENTER, T, 600, 0.2), QueryOptions(algorithm="nope")
        )
        with pytest.raises(ValueError, match="unknown"):
            client.stream([bad])


class TestDeprecations:
    def test_run_batch_does_not_warn(self, engine):
        service = QueryService(engine)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = run_batch(service, [SQuery(CENTER, T, 600, 0.2)])
        assert len(report.results) == 1


class TestAsClient:
    def test_idempotent(self, engine, client):
        assert as_client(client) is client
        assert as_client(engine).engine is engine

    def test_wraps_service(self, engine):
        service = QueryService(engine)
        wrapped = as_client(service)
        assert wrapped.service is service
        # The client shares the service-lifetime region cache.
        assert wrapped.service.region_cache is service.region_cache
