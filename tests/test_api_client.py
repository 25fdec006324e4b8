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

import threading
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
from repro.storage import disk as disk_module
from repro.storage.disk import DiskStats
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


@pytest.fixture()
def client(engine):
    return ReachabilityClient(engine)


def on_a_thread(call):
    """Run ``call`` on a new thread, wait for it and return its value."""
    outcome: list = []
    thread = threading.Thread(target=lambda: outcome.append(call()))
    thread.start()
    thread.join(120)
    assert outcome, "the call raised or did not finish"
    return outcome[0]


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
        assert first.regions_computed == 1
        assert first.regions_reused == 0
        second = client.send(request)
        assert second.regions_computed == 0
        assert second.regions_reused == 1
        assert second.segments == first.segments
        # A different threshold still shares the shape-keyed bounds (the
        # start road's cap is 5/10 days, so 0.5 still reaches them) ...
        third = client.send(Request(SQuery(CENTER, T, 600, 0.5)))
        assert third.regions_computed == 0
        assert third.regions_reused == 1
        # ... and one above that cap skips the seed before any bound.
        fourth = client.send(Request(SQuery(CENTER, T, 600, 0.8)))
        assert (fourth.regions_computed, fourth.regions_reused) == (0, 0)
        assert fourth.segments == set()

    def test_reported_io_cost_reads_the_latency_constant(self, engine, monkeypatch):
        """Single sends and batches price their page reads through
        ``storage.disk.read_io_ms`` at the module's current latency."""
        monkeypatch.setattr(disk_module, "READ_LATENCY_MS", 5.0)
        client = ReachabilityClient(engine)
        request = Request(
            SQuery(CENTER, T, 600, 0.2), QueryOptions(reuse_regions=False)
        )
        cost = client.send(request).cost
        assert cost.io.page_reads > 0
        assert cost.simulated_io_ms == cost.io.page_reads * 5.0
        report = client.run_batch([request, request])
        assert report.io.page_reads > 0
        assert report.simulated_io_ms == report.io.page_reads * 5.0

    def test_reuse_regions_opt_out(self, engine):
        """The paper's cold protocol stays expressible per request."""
        client = ReachabilityClient(engine)
        request = Request(
            SQuery(CENTER, T, 600, 0.2), QueryOptions(reuse_regions=False)
        )
        client.send(request)
        repeat = client.send(request)
        assert repeat.regions_computed == 1
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

    def test_sends_from_other_threads(self, engine):
        client = ReachabilityClient(engine)
        responses = [
            on_a_thread(lambda: client.send(Request(SQuery(CENTER, T, 600, prob))))
            for prob in (0.2, 0.4, 0.8)
        ]
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

    def test_stream_pull_windows_exclude_interleaved_calls(self, engine):
        """Each pull is its own accounting window: a send between two
        pulls is charged to the send, never to the stream."""
        requests = [
            Request(SQuery(CENTER, T, 600, 0.2)),
            Request(MQuery((CENTER, Point(1000.0, 800.0)), T, 600, 0.2)),
            Request(SQuery(Point(400.0, 300.0), T, 900, 0.2)),
        ]
        client = ReachabilityClient(engine)
        stream = client.stream(requests)
        responses = [next(stream)]
        between = client.send(Request(SQuery(CENTER, T, 1200, 0.4)))
        responses.extend(stream)
        assert between.cost.io.page_reads > 0
        assert sum((r.cost.io for r in responses), DiskStats()) == stream.report.io

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


def digest(result) -> tuple:
    """A result's answer: its segments and the probabilities it computed."""
    return tuple(sorted(result.segments)), tuple(sorted(result.probabilities.items()))


class TestConcurrentCallers:
    """One engine, one thread at a time: callers on many threads take
    turns under the engine lock, so each call's answers and per-query
    costs equal the same call made alone."""

    def test_mixed_callers_match_serial(self, engine):
        locations = [Point(x, y) for x in (-600.0, 0.0, 600.0) for y in (-400.0, 400.0)]
        singles = [
            Request(SQuery(location, T, duration, 0.2))
            for location in locations
            for duration in (600, 900)
        ]
        batches = [
            singles[:5],
            singles[5:9]
            + [Request(MQuery((CENTER, Point(1000.0, 800.0)), T, 600, 0.2))],
            [
                Request(SQuery(CENTER, T, 600, 0.2), QueryOptions(direction="reverse")),
                singles[9],
                Request(SQuery(CENTER, T, 240, 0.3)),  # sub-slot: routed to es
                singles[10],
            ],
        ]
        # Four callers, each mixing send, a send on a thread of its own and
        # run_batch.
        calls = [
            [("send", singles[caller]), ("batch", batches[caller % 3]),
             ("thread", singles[11 - caller]), ("batch", batches[(caller + 1) % 3]),
             ("send", singles[caller + 4])]
            for caller in range(4)
        ]
        client = ReachabilityClient(engine)

        def run(kind, payload):
            if kind == "send":
                return [client.send(payload).result], None
            if kind == "thread":
                return [on_a_thread(lambda: client.send(payload)).result], None
            report = client.run_batch(payload)
            return report.results, report

        def observed(kind, payload):
            results, report = run(kind, payload)
            if report is not None:
                assert sum((r.cost.io for r in results), DiskStats()) == report.io
            return [(digest(r), r.cost.io) for r in results]

        with client:
            # Every call once, so bounding regions and Con-Index entries
            # exist before either measured pass: each call then starts from
            # cold pools and a warm region cache, whatever ran before it.
            for caller_calls in calls:
                for call in caller_calls:
                    run(*call)
            serial = [[observed(*call) for call in caller_calls] for caller_calls in calls]
            got: list = [None] * len(calls)
            errors: list[BaseException] = []
            start = threading.Barrier(len(calls))

            def caller(index: int) -> None:
                try:
                    start.wait()
                    got[index] = [observed(*call) for call in calls[index]]
                except BaseException as error:  # surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=caller, args=(index,))
                for index in range(len(calls))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        assert not errors
        assert got == serial


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
