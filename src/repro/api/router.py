"""Adaptive query routing: classify a request, pick the cheapest route.

``algorithm="auto"`` is resolved here.  The router looks only at the
*shape* of a request — duration vs Δt, location count and spread,
probability threshold, direction, budget — and maps it onto one of the
registered execution routes:

* **SQMB+TBS** (``sqmb_tbs``) — the paper's s-query method, the default
  forward route;
* **MQMB+TBS** (``mqmb_tbs``) — the paper's m-query method for
  overlapping multi-location requests;
* **decomposed-s** (``sqmb_tbs_each``) — per-location SQMB+TBS for
  m-queries whose seeds cannot interact (one location, or spread so far
  apart their maximum regions are provably disjoint);
* **ES baseline** (``es`` / ``es_each``) — exhaustive verification for
  sub-slot durations, where the Δt-hop bounding machinery degenerates to
  a single quantized hop.

Every classification is recorded as an inspectable
:class:`RouteDecision` (rule id, human reason, the feature values it
fired on), rendered by ``EXPLAIN`` and carried on every
:class:`~repro.api.envelope.Response`.  Forcing
``algorithm=<decision.algorithm>`` returns the identical segment set.
Across routes, the bounded ones skip the seeds Eq. 3.1 caps below Prob
and examine the whole ring Bmax ∪ Bmin, so a rule that swaps ES for a
bounded route (``sub-slot-es``, ``budget-bounds``) changes the answer
only where Bmax misses a road entered within L (2 of 1,536 seeded
test-city queries; ``docs/api.md``).

The design follows the "traffic light" routing exemplar (virt-graph):
one front door, a small ordered rule table, first match wins, and the
decision is always explainable after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.api.envelope import AUTO, Request
from repro.core.query import MQuery

#: Algorithms that verify exhaustively, without Con-Index bounds.
ES_FAMILY = frozenset({"es", "es_pruned", "es_each"})

#: The paper's method per query kind (the bounded routes).
PAPER_ALGORITHMS = {"s": "sqmb_tbs", "m": "mqmb_tbs", "r": "sqmb_tbs"}

#: Minimum probability threshold for the sub-slot ES route; below it, a
#: permissive threshold can pass enough far-flung segments to make
#: exhaustive verification expensive, so low-prob requests stay on the
#: bounded route.
ES_PROB_FLOOR = 0.2

#: Speed bound (m/s) used to prove that m-query seeds cannot interact:
#: when *every* pair of seeds is farther apart than
#: ``2 · duration · DISJOINT_SPEED_MPS``, all per-seed maximum regions are
#: provably disjoint, so the unified MQMB expansion degenerates and the
#: decomposed-s route skips its overlap elimination.  Kept above any speed
#: the dataset can exhibit.
DISJOINT_SPEED_MPS = 40.0


@dataclass(frozen=True)
class RouteDecision:
    """One request's routing outcome, ready for execution or display.

    Attributes:
        kind: planner kind (``s``/``m``/``r``) from the direction and
            query type.
        algorithm: the executor route chosen.
        rule: id of the routing rule that fired (``"forced"`` when the
            request named a concrete algorithm).
        reason: one human sentence explaining the choice.
        requested: what the request asked for (``"auto"`` or a name).
        features: the classified shape, as ``(name, value)`` pairs.
    """

    kind: str
    algorithm: str
    rule: str
    reason: str
    requested: str = AUTO
    features: tuple[tuple[str, object], ...] = ()

    def describe(self) -> str:
        """One-line routing summary (rendered by ``EXPLAIN``)."""
        shape = ", ".join(f"{name}={value}" for name, value in self.features)
        return (
            f"route: {self.kind}-query -> {self.algorithm!r} "
            f"[rule {self.rule}] {self.reason}"
            + (f" | shape: {shape}" if shape else "")
        )


class Router:
    """Shape-based request classifier behind ``algorithm="auto"``.

    Stateless and engine-free: decisions depend only on the request and
    Δt, so they can be made (and tested) without touching any index.
    There is one policy (:data:`ROUTER`), so every client, dispatcher and
    replica routes a request alike.
    """

    def route(self, request: Request, delta_t_s: int) -> RouteDecision:
        """Classify one request into a :class:`RouteDecision`.

        Args:
            request: the request to classify.
            delta_t_s: the resolved index granularity Δt (the request's
                override or the client default).
        """
        options = request.options
        kind = request.kind
        features = self._features(request, delta_t_s)
        if options.algorithm != AUTO:
            return RouteDecision(
                kind=kind,
                algorithm=options.algorithm,
                rule="forced",
                reason="algorithm named explicitly by the request",
                requested=options.algorithm,
                features=features,
            )
        decision = self._auto(request, kind, delta_t_s, features)
        if (
            options.cost_budget_ms is not None
            and decision.algorithm in ES_FAMILY
        ):
            # Exhaustive verification has data-dependent, unbounded cost;
            # a budgeted request gets the bounded paper route instead.
            return RouteDecision(
                kind=kind,
                algorithm=PAPER_ALGORITHMS[kind],
                rule="budget-bounds",
                reason=(
                    f"cost budget {options.cost_budget_ms:.0f} ms forbids the "
                    f"unbounded {decision.algorithm!r} route (was rule "
                    f"{decision.rule})"
                ),
                features=features,
            )
        return decision

    # -- classification ----------------------------------------------------

    def _features(
        self, request: Request, delta_t_s: int
    ) -> tuple[tuple[str, object], ...]:
        query = request.query
        features: list[tuple[str, object]] = [
            ("direction", request.options.direction),
            ("duration_s", query.duration_s),
            ("delta_t_s", delta_t_s),
            ("sub_slot", query.duration_s < delta_t_s),
            ("prob", query.prob),
        ]
        if isinstance(query, MQuery):
            distinct = tuple(dict.fromkeys(query.locations))
            features.append(("locations", len(query.locations)))
            features.append(("distinct_locations", len(distinct)))
            features.append(("min_gap_m", round(self._min_gap_m(distinct), 1)))
        else:
            features.append(("locations", 1))
        return tuple(features)

    @staticmethod
    def _min_gap_m(locations: tuple) -> float:
        """Smallest pairwise distance between query locations (metres).

        Disjointness must hold for *every* pair, so the rule gates on
        the minimum — a clustered pair plus a far outlier is not sparse.
        """
        if len(locations) < 2:
            return 0.0
        return min(
            a.distance_to(b) for a, b in combinations(locations, 2)
        )

    def _auto(
        self,
        request: Request,
        kind: str,
        delta_t_s: int,
        features: tuple[tuple[str, object], ...],
    ) -> RouteDecision:
        query = request.query
        sub_slot = query.duration_s < delta_t_s

        def decide(algorithm: str, rule: str, reason: str) -> RouteDecision:
            return RouteDecision(
                kind=kind, algorithm=algorithm, rule=rule, reason=reason,
                features=features,
            )

        if kind == "r":
            return decide(
                "sqmb_tbs", "reverse-bounds",
                "reverse reachability runs backward Con-Index bounds + "
                "trace-back",
            )
        if kind == "s":
            if sub_slot and query.prob >= ES_PROB_FLOOR:
                return decide(
                    "es", "sub-slot-es",
                    f"duration {query.duration_s:.0f}s < Δt={delta_t_s}s: "
                    "the Δt-hop bounding search degenerates to one "
                    "quantized hop, so exhaustive verification of the "
                    "in-window support is the cheaper exact route",
                )
            return decide(
                "sqmb_tbs", "paper-s",
                "single-location forward query takes the paper's "
                "SQMB bounds + trace-back",
            )
        # m-queries.
        distinct = tuple(dict.fromkeys(query.locations))
        if len(distinct) == 1:
            return decide(
                "sqmb_tbs_each", "single-location-decompose",
                "one distinct location: MQMB's unified expansion and "
                "overlap elimination add nothing over a single SQMB run",
            )
        if sub_slot and query.prob >= ES_PROB_FLOOR:
            return decide(
                "es_each", "sub-slot-es",
                f"duration {query.duration_s:.0f}s < Δt={delta_t_s}s per "
                "seed: exhaustive verification beats one-hop bounds",
            )
        min_gap = self._min_gap_m(distinct)
        if min_gap > 2.0 * query.duration_s * DISJOINT_SPEED_MPS:
            return decide(
                "sqmb_tbs_each", "sparse-decompose",
                f"every seed pair is ≥ {min_gap:.0f} m apart and cannot "
                f"interact within {query.duration_s:.0f}s "
                f"(≤ {DISJOINT_SPEED_MPS:.0f} m/s): per-seed maximum "
                "regions are disjoint, so the decomposed route skips "
                "MQMB's overlap elimination",
            )
        return decide(
            "mqmb_tbs", "paper-m",
            "overlapping multi-location query takes the paper's unified "
            "MQMB bounds + trace-back",
        )


#: The one routing policy behind ``algorithm="auto"``.
ROUTER = Router()


#: The routing rule table, for documentation and ``--explain`` rendering:
#: (rule id, fires when, route).
ROUTING_TABLE: tuple[tuple[str, str, str], ...] = (
    ("forced", "the request names a concrete algorithm", "that algorithm"),
    ("reverse-bounds", "direction=reverse", "sqmb_tbs (backward bounds)"),
    ("sub-slot-es", "duration < Δt and prob ≥ ES_PROB_FLOOR",
     "es / es_each"),
    ("single-location-decompose", "m-query with one distinct location",
     "sqmb_tbs_each"),
    ("sparse-decompose",
     "every m-query seed pair farther apart than 2·duration·DISJOINT_SPEED_MPS",
     "sqmb_tbs_each"),
    ("paper-s", "any other s-query", "sqmb_tbs"),
    ("paper-m", "any other m-query", "mqmb_tbs"),
    ("budget-bounds", "cost budget set and an ES route was chosen",
     "the paper route for the kind"),
)
