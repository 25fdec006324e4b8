"""Tests for the query planner and the executor registry."""

import pytest

from benchmarks.client_protocol import m_query, r_query, s_query
from repro.core.executors import (
    ExecutionOutcome,
    _REGISTRY,
    execute_plan,
    executor_names,
    get_executor,
    has_executor,
    register_executor,
)
from repro.core.planner import QueryPlan, plan_query
from repro.core.query import MQuery, QueryResult, SQuery
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)
S = SQuery(CENTER, T, 600, 0.2)
M = MQuery((CENTER, Point(1000.0, 0.0)), T, 1200, 0.2)


class TestPlanSelection:
    def test_sqmb_tbs_plan(self):
        plan = plan_query("s", S, "sqmb_tbs", delta_t_s=300)
        assert plan.kind == "s"
        assert plan.executor == "sqmb_tbs"
        assert plan.bounding_strategy == "sqmb"
        assert plan.uses_con_index
        assert plan.steps == 2  # L=600, Δt=300
        assert plan.start_slot == T // 300
        assert plan.num_locations == 1

    def test_es_plan_has_no_bounds(self):
        for algorithm in ("es", "es_pruned"):
            plan = plan_query("s", S, algorithm)
            assert plan.bounding_strategy is None
            assert not plan.uses_con_index
            assert plan.steps == 0

    def test_mqmb_plan(self):
        plan = plan_query("m", M, "mqmb_tbs", delta_t_s=300)
        assert plan.kind == "m"
        assert plan.bounding_strategy == "mqmb"
        assert plan.steps == 4
        assert plan.num_locations == 2

    def test_naive_m_plan_uses_sqmb(self):
        plan = plan_query("m", M, "sqmb_tbs_each")
        assert plan.bounding_strategy == "sqmb"

    def test_reverse_plan_uses_reverse_bounds(self):
        plan = plan_query("r", S, "sqmb_tbs")
        assert plan.kind == "r"
        assert plan.bounding_strategy == "reverse"
        reverse_es = plan_query("r", S, "es")
        assert reverse_es.bounding_strategy is None

    def test_short_query_takes_one_hop(self):
        plan = plan_query("s", SQuery(CENTER, T, 100, 0.2), "sqmb_tbs",
                            delta_t_s=300)
        assert plan.steps == 1

    def test_identical_queries_share_equal_plans(self):
        assert plan_query("s", S, "sqmb_tbs") == plan_query("s", S, "sqmb_tbs")
        # Probability does not enter the plan: same routing either way.
        other = SQuery(CENTER, T, 600, 0.8)
        assert plan_query("s", other, "sqmb_tbs") == plan_query("s", S, "sqmb_tbs")

    def test_describe_mentions_routing(self):
        text = plan_query("s", S, "sqmb_tbs", delta_t_s=300).describe()
        assert "sqmb_tbs" in text
        assert "sqmb" in text
        assert "cold" in text


class TestPlanErrors:
    def test_unknown_s_algorithm(self):
        with pytest.raises(ValueError, match="unknown s-query algorithm"):
            plan_query("s", S, "nope")

    def test_unknown_m_algorithm(self):
        with pytest.raises(ValueError, match="unknown m-query algorithm"):
            plan_query("m", M, "sqmb_tbs")  # registered for s, not m

    def test_unknown_r_algorithm(self):
        with pytest.raises(ValueError, match="unknown r-query algorithm"):
            plan_query("r", S, "mqmb_tbs")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            plan_query("x", S, "sqmb_tbs")

    def test_bad_delta_t(self):
        with pytest.raises(ValueError, match="granularity"):
            plan_query("s", S, "sqmb_tbs", delta_t_s=0)

    def test_error_lists_registered_names(self):
        with pytest.raises(ValueError, match="sqmb_tbs"):
            plan_query("s", S, "nope")

    def test_engine_facade_propagates(self, engine):
        with pytest.raises(ValueError, match="unknown s-query algorithm"):
            s_query(engine, S, algorithm="nope")
        with pytest.raises(ValueError, match="unknown m-query algorithm"):
            m_query(engine, M, algorithm="nope")
        with pytest.raises(ValueError, match="unknown r-query algorithm"):
            r_query(engine, S, algorithm="mqmb_tbs")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(executor_names("s")) >= {"sqmb_tbs", "es", "es_pruned"}
        assert set(executor_names("m")) >= {
            "mqmb_tbs", "sqmb_tbs_each", "es_each",
        }
        assert set(executor_names("r")) >= {"sqmb_tbs", "es"}

    def test_get_unregistered_raises(self):
        with pytest.raises(KeyError):
            get_executor("s", "nope")

    def test_register_round_trip(self, engine):
        """A third-party executor registers, plans, and executes."""

        def fake_executor(ctx, plan, query):
            return ExecutionOutcome(
                result=QueryResult(segments={1, 2, 3}),
            )

        register_executor("s", "custom_fake")(fake_executor)
        try:
            assert has_executor("s", "custom_fake")
            assert get_executor("s", "custom_fake") is fake_executor
            assert "custom_fake" in executor_names("s")
            plan = plan_query("s", S, "custom_fake")
            assert plan.bounding_strategy is None
            result = s_query(engine, S, algorithm="custom_fake")
            assert result.segments == {1, 2, 3}
            assert result.cost.probability_checks == 0
        finally:
            _REGISTRY.pop(("s", "custom_fake"))

    def test_duplicate_registration_rejected(self):
        def executor(ctx, plan, query):  # pragma: no cover - never runs
            return ExecutionOutcome()

        register_executor("s", "dupe_fake")(executor)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_executor("s", "dupe_fake")(executor)
        finally:
            _REGISTRY.pop(("s", "dupe_fake"))

    def test_register_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            register_executor("z", "whatever")

    def test_execute_plan_fills_cost(self, engine):
        plan = plan_query("s", S, "sqmb_tbs", delta_t_s=300)
        result = execute_plan(engine, plan, S)
        assert isinstance(plan, QueryPlan)
        assert result.cost.io.page_reads > 0
        assert result.cost.probability_checks > 0
