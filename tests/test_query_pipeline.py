"""The executor pipelines, written once and observed by EXPLAIN.

Every registered ``(kind, algorithm)`` runs one of two pipelines
(``execute_bounded`` / ``execute_exhaustive``); ``client.explain`` is
``client.send`` with a stage recorder attached, so the two must agree on
every route, and the s-query must be exactly the one-location m-query.
"""

import pytest

from repro.api import QueryOptions, ReachabilityClient, Request
from repro.core.engine import ReachabilityEngine
from repro.core.executors import executor_names
from repro.core.query import MQuery, SQuery
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)
REGISTERED = [
    (kind, name) for kind in ("s", "m", "r") for name in executor_names(kind)
]


@pytest.fixture()
def fresh_client(test_dataset):
    """Clients over engines nobody has queried: exact costs compare equal
    only when neither side inherits memoised Con-Index entries."""

    def make() -> ReachabilityClient:
        return ReachabilityClient(
            ReachabilityEngine(test_dataset.network, test_dataset.database)
        )

    return make


def request_for(kind: str, algorithm: str, **options) -> Request:
    if kind == "m":
        query = MQuery((CENTER, Point(1000.0, 600.0)), T, 600, 0.2)
    else:
        query = SQuery(CENTER, T, 600, 0.2)
    direction = "reverse" if kind == "r" else "forward"
    return Request(
        query, QueryOptions(direction=direction, algorithm=algorithm, **options)
    )


class TestExplainObservesSend:
    @pytest.mark.parametrize("kind,name", REGISTERED)
    def test_every_route_explains_what_send_does(self, fresh_client, kind, name):
        request = request_for(kind, name)
        sent = fresh_client().send(request)
        explanation = fresh_client().explain(request)
        assert sent.segments  # a query with an answer, not the dead path
        assert explanation.stages
        assert explanation.stages[0].name == "start-segment lookup"
        header = explanation.to_text().splitlines()[0]
        assert header == f"QUERY PLAN ({name})"
        assert explanation.route.algorithm == name
        assert explanation.region_segments == len(sent.segments)
        assert explanation.examined == sent.cost.segments_expanded > 0
        explained = explanation.response
        assert explained.segments == sent.segments
        assert explained.result.probabilities == sent.result.probabilities
        assert explained.cost.io == sent.cost.io
        # The stage table accounts for every page the query read.
        assert (
            sum(stage.page_reads for stage in explanation.stages)
            == sent.cost.io.page_reads
            > 0
        )

    def test_warm_explain_after_send_reads_nothing(self, fresh_client):
        client = fresh_client()
        sent = client.send(request_for("s", "sqmb_tbs"))
        assert sent.cost.io.page_reads > 0
        warm = client.explain(request_for("s", "sqmb_tbs", warm=True))
        assert warm.plan.warm
        assert warm.response.segments == sent.segments
        assert warm.response.cost.io.page_reads == 0
        assert sum(stage.page_reads for stage in warm.stages) == 0
        cold = client.explain(request_for("s", "sqmb_tbs"))
        assert cold.response.cost.io.page_reads == sent.cost.io.page_reads

    def test_explain_shares_the_region_cache(self, fresh_client):
        client = fresh_client()
        first = client.explain(request_for("s", "sqmb_tbs")).response
        second = client.explain(request_for("s", "sqmb_tbs")).response
        assert (first.regions_computed, first.regions_reused) == (2, 0)
        assert (second.regions_computed, second.regions_reused) == (0, 2)
        private = client.explain(
            request_for("s", "sqmb_tbs", reuse_regions=False)
        ).response
        assert (private.regions_computed, private.regions_reused) == (2, 0)


class TestOnePipeline:
    def test_one_location_m_query_is_the_s_query(self, fresh_client):
        """Pipeline-level twin of ``test_single_seed_matches_sqmb``."""
        single = fresh_client().send(request_for("s", "sqmb_tbs"))
        as_m = fresh_client().send(
            Request(
                MQuery((CENTER,), T, 600, 0.2),
                QueryOptions(algorithm="mqmb_tbs"),
            )
        )
        assert as_m.segments == single.segments
        assert as_m.result.probabilities == single.result.probabilities
        assert as_m.result.max_region == single.result.max_region
        assert as_m.result.min_region == single.result.min_region
        assert as_m.cost.probability_checks == single.cost.probability_checks
        assert as_m.cost.io == single.cost.io

    def test_repeated_locations_run_once(self, fresh_client):
        single = fresh_client().send(request_for("s", "sqmb_tbs"))
        repeated = fresh_client().send(
            Request(MQuery((CENTER, CENTER, CENTER), T, 600, 0.2))
        )
        assert repeated.route.rule == "single-location-decompose"
        assert repeated.plan.executor == "sqmb_tbs_each"
        assert repeated.segments == single.segments
        assert repeated.result.probabilities == single.result.probabilities
        assert repeated.cost.probability_checks == single.cost.probability_checks
        assert repeated.cost.segments_expanded == single.cost.segments_expanded
        assert repeated.cost.io == single.cost.io
