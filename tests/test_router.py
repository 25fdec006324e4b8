"""Tests for the adaptive router: the fixture table and routing exactness.

Two layers of guarantees:

* the **fixture table** pins every routing rule to a concrete request
  shape (sub-slot durations route to ES, multi-location to MQMB, ...);
* the **exactness properties** assert that routing never changes
  answers — ``algorithm="auto"`` returns the identical segment set to
  forcing the routed algorithm, to forcing the paper's algorithm
  wherever the paper route is chosen, and to the exhaustive route of the
  query's kind on every shape below (where the bounded and exhaustive
  answers agree; ``tests/test_bounded_exactness.py`` lists where they do
  not).
"""

import pytest

from repro.api import (
    AUTO,
    QueryOptions,
    ReachabilityClient,
    Request,
    Router,
)
from repro.api import router as router_module
from repro.api.router import PAPER_ALGORITHMS, ROUTING_TABLE
from repro.core.query import MQuery, SQuery
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
NEAR = Point(1000.0, 800.0)
FAR = Point(200_000.0, 160_000.0)  # provably beyond any 10-min reach
T = day_time(11)
DT = 300


def s(duration_s=600, prob=0.2, location=CENTER):
    return SQuery(location, T, duration_s, prob)


def m(locations=(CENTER, NEAR), duration_s=600, prob=0.2):
    return MQuery(tuple(locations), T, duration_s, prob)


#: The shape-fixture table: (request, expected algorithm, expected rule).
FIXTURES = [
    # Forward s-queries.
    (Request(s(600)), "sqmb_tbs", "paper-s"),
    (Request(s(1800)), "sqmb_tbs", "paper-s"),
    # Sub-slot duration: the Δt-hop bounding machinery degenerates.
    (Request(s(60)), "es", "sub-slot-es"),
    (Request(s(299)), "es", "sub-slot-es"),
    # ... but a permissive threshold keeps the bounded route.
    (Request(s(60, prob=0.05)), "sqmb_tbs", "paper-s"),
    # Multi-location routes to the paper's unified MQMB.
    (Request(m()), "mqmb_tbs", "paper-m"),
    (Request(m((CENTER, NEAR, Point(-900.0, -700.0)))), "mqmb_tbs", "paper-m"),
    # One distinct location: decomposed-s (MQMB adds nothing).
    (Request(m((CENTER,))), "sqmb_tbs_each", "single-location-decompose"),
    (Request(m((CENTER, CENTER))), "sqmb_tbs_each", "single-location-decompose"),
    # Sub-slot m-query: exhaustive per seed.
    (Request(m(duration_s=120)), "es_each", "sub-slot-es"),
    # Seeds too far apart to interact: decomposed-s.
    (Request(m((CENTER, FAR))), "sqmb_tbs_each", "sparse-decompose"),
    # A clustered pair plus a far outlier is NOT sparse — disjointness
    # must hold for every pair, and the close pair overlaps.
    (Request(m((CENTER, Point(10.0, 0.0), FAR))), "mqmb_tbs", "paper-m"),
    # Reverse direction.
    (
        Request(s(600), QueryOptions(direction="reverse")),
        "sqmb_tbs",
        "reverse-bounds",
    ),
    # A budget forbids the unbounded ES route.
    (
        Request(s(60), QueryOptions(cost_budget_ms=100.0)),
        "sqmb_tbs",
        "budget-bounds",
    ),
    (
        Request(m(duration_s=120), QueryOptions(cost_budget_ms=100.0)),
        "mqmb_tbs",
        "budget-bounds",
    ),
    # Forced algorithms bypass classification.
    (Request(s(60), QueryOptions(algorithm="es_pruned")), "es_pruned", "forced"),
    (Request(m(), QueryOptions(algorithm="sqmb_tbs_each")), "sqmb_tbs_each", "forced"),
]


class TestRouteDecisions:
    @pytest.mark.parametrize(
        "request_, algorithm, rule",
        FIXTURES,
        ids=[f"{r.kind}-{rule}-{alg}" for r, alg, rule in FIXTURES],
    )
    def test_fixture_table(self, request_, algorithm, rule):
        decision = Router().route(request_, DT)
        assert decision.algorithm == algorithm
        assert decision.rule == rule
        assert decision.kind == request_.kind

    def test_decision_records_features(self):
        decision = Router().route(Request(m(duration_s=120)), DT)
        features = dict(decision.features)
        assert features["sub_slot"] is True
        assert features["delta_t_s"] == DT
        assert features["distinct_locations"] == 2
        assert "min_gap_m" in features
        assert decision.describe().startswith("route: m-query")

    def test_forced_records_request(self):
        decision = Router().route(
            Request(s(), QueryOptions(algorithm="es")), DT
        )
        assert decision.rule == "forced"
        assert decision.requested == "es"

    def test_thresholds_respected(self, monkeypatch):
        monkeypatch.setattr(router_module, "ES_PROB_FLOOR", 0.01)
        assert Router().route(Request(s(60, prob=0.05)), DT).algorithm == "es"
        # A small disjointness speed makes nearby seeds "sparse".
        monkeypatch.setattr(router_module, "DISJOINT_SPEED_MPS", 0.001)
        assert Router().route(Request(m()), DT).rule == "sparse-decompose"

    def test_delta_t_changes_sub_slot_classification(self):
        router = Router()
        assert router.route(Request(s(240)), 300).algorithm == "es"
        assert router.route(Request(s(240)), 60).algorithm == "sqmb_tbs"

    def test_routing_table_covers_every_rule(self):
        documented = {rule for rule, _, _ in ROUTING_TABLE}
        fired = {rule for _, _, rule in FIXTURES}
        assert fired <= documented


class TestRoutingExactness:
    """Auto-routing must never change a query's answer."""

    @pytest.fixture(scope="class")
    def client(self, engine):
        return ReachabilityClient(engine)

    # Shapes spanning every route (sub-slot, paper, decomposed, reverse).
    SHAPES = [
        Request(s(600)),
        Request(s(1200, prob=0.5)),
        Request(s(120)),
        Request(m()),
        Request(m((CENTER, NEAR, Point(-900.0, -700.0)), duration_s=1200)),
        Request(m((CENTER,))),
        Request(m(duration_s=120)),
        Request(s(900), QueryOptions(direction="reverse")),
    ]

    @pytest.mark.parametrize(
        "request_", SHAPES, ids=[str(i) for i in range(len(SHAPES))]
    )
    def test_auto_matches_forced_routed_algorithm(self, client, request_):
        """Routing is exact: auto == forcing the algorithm it chose."""
        decision = client.route(request_)
        assert request_.options.algorithm == AUTO
        auto = client.send(request_)
        forced = client.send(
            Request(
                request_.query,
                QueryOptions(
                    direction=request_.options.direction,
                    algorithm=decision.algorithm,
                ),
            )
        )
        assert auto.route.rule != "forced"
        assert forced.route.rule == "forced"
        assert auto.segments == forced.segments
        assert auto.result.probabilities == forced.result.probabilities

    @pytest.mark.parametrize(
        "request_",
        SHAPES + [request_ for request_, _, _ in FIXTURES],
        ids=[f"shape{i}" for i in range(len(SHAPES))]
        + [f"{r.kind}-{rule}-{alg}" for r, alg, rule in FIXTURES],
    )
    def test_auto_answers_what_exhaustive_search_answers(self, client, request_):
        """The route only picks the cost: ``auto`` (and every forced route
        of the table) equals ``es`` / ``es_each`` in the same direction."""
        exhaustive = "es_each" if isinstance(request_.query, MQuery) else "es"
        answer = client.send(request_)
        truth = client.send(
            Request(
                request_.query,
                QueryOptions(direction=request_.options.direction, algorithm=exhaustive),
            )
        )
        assert answer.segments == truth.segments

    @pytest.mark.parametrize(
        "query",
        [s(600), s(900, prob=0.5), s(1500)],
        ids=["L10", "L15-p50", "L25"],
    )
    def test_auto_s_matches_paper_algorithm(self, client, query):
        """Standard s-shapes route to — and exactly match — SQMB+TBS."""
        auto = client.send(Request(query))
        assert auto.route.algorithm == PAPER_ALGORITHMS["s"]
        forced = client.send(
            Request(query, QueryOptions(algorithm=PAPER_ALGORITHMS["s"]))
        )
        assert auto.segments == forced.segments

    @pytest.mark.parametrize(
        "query",
        [m(), m(duration_s=1200), m((CENTER, NEAR, Point(800.0, -600.0)))],
        ids=["pair", "long", "triple"],
    )
    def test_auto_m_matches_paper_algorithm(self, client, query):
        """Standard m-shapes route to — and exactly match — MQMB+TBS."""
        auto = client.send(Request(query))
        assert auto.route.algorithm == PAPER_ALGORITHMS["m"]
        forced = client.send(
            Request(query, QueryOptions(algorithm=PAPER_ALGORITHMS["m"]))
        )
        assert auto.segments == forced.segments

    def test_sparse_decompose_matches_unified(self, client):
        """The disjointness guard is conservative: decomposed execution
        equals the unified MQMB result when it fires."""
        query = m((CENTER, FAR), duration_s=600)
        auto = client.send(Request(query))
        assert auto.route.rule == "sparse-decompose"
        unified = client.send(
            Request(query, QueryOptions(algorithm="mqmb_tbs"))
        )
        assert auto.segments == unified.segments
