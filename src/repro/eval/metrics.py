"""Evaluation metrics (§4.1).

Two metrics, exactly as the paper defines them:

* **running time** — how long an algorithm takes to process a query.  In
  this reproduction that is wall-clock time plus the accounted cost of the
  simulated disk reads (``QueryCost.total_cost_ms``), since the simulated
  disk is what stands in for the paper's I/O-bound testbed.
* **total length of covered road segments** — the effectiveness measure:
  the summed length (km) of the Prob-reachable result, deduplicating
  two-way twins.
"""

from __future__ import annotations

from repro.core.query import QueryResult
from repro.network.model import RoadNetwork


def region_road_length_km(result: QueryResult, network: RoadNetwork) -> float:
    """Total result road length in kilometres."""
    return result.road_length_m(network) / 1000.0
