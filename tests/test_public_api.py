"""Public-API surface snapshot: changes to ``repro.api`` must be loud.

The client API is the repo's stability contract — apps, the CLI, the
eval harness and external users all program against it.  This snapshot
makes any accidental surface change (a dropped export, a renamed field,
an unfrozen envelope) fail the gate explicitly, so widening the API is
always a reviewed decision.
"""

import dataclasses

import pytest

import repro
import repro.api as api

#: The frozen surface of ``repro.api``.  Update deliberately.
API_SURFACE = (
    "AUTO",
    "BatchStream",
    "QueryOptions",
    "ROUTING_TABLE",
    "ReachabilityClient",
    "Request",
    "Response",
    "RouteDecision",
    "Router",
    "as_client",
)

#: Client API names re-exported at the top level.
TOP_LEVEL_REEXPORTS = (
    "ReachabilityClient",
    "Request",
    "Response",
    "QueryOptions",
    "Router",
    "RouteDecision",
    "as_client",
)

#: Field names of the frozen envelopes (kwarg compatibility contract).
OPTION_FIELDS = (
    "direction",
    "algorithm",
    "delta_t_s",
    "warm",
    "reuse_regions",
    "tag",
    "cost_budget_ms",
)

DECISION_FIELDS = ("kind", "algorithm", "rule", "reason", "requested", "features")


class TestSurfaceSnapshot:
    def test_all_matches_snapshot(self):
        assert tuple(sorted(api.__all__)) == API_SURFACE

    def test_every_export_resolves(self):
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.{name} missing"

    def test_top_level_reexports(self):
        for name in TOP_LEVEL_REEXPORTS:
            assert name in repro.__all__
            assert getattr(repro, name) is getattr(api, name)

    def test_client_entry_points(self):
        for method in ("send", "stream", "run_batch", "plan",
                       "route", "explain", "close"):
            assert callable(getattr(api.ReachabilityClient, method))


class TestEnvelopeContracts:
    def test_query_options_fields(self):
        assert tuple(
            f.name for f in dataclasses.fields(api.QueryOptions)
        ) == OPTION_FIELDS

    def test_route_decision_fields(self):
        assert tuple(
            f.name for f in dataclasses.fields(api.RouteDecision)
        ) == DECISION_FIELDS

    @pytest.mark.parametrize(
        "instance",
        [
            api.QueryOptions(),
            api.RouteDecision(
                kind="s", algorithm="sqmb_tbs", rule="paper-s", reason="test"
            ),
        ],
        ids=["QueryOptions", "RouteDecision"],
    )
    def test_envelopes_frozen(self, instance):
        field = dataclasses.fields(instance)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field, None)

    def test_routing_table_shape(self):
        assert len(api.ROUTING_TABLE) >= 7
        for rule, condition, route in api.ROUTING_TABLE:
            assert rule and condition and route
