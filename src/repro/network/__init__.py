"""Road-network substrate.

Implements the directed road-network graph of §2.1 (segments with unique
IDs, adjacency, shape points, length, direction, level and MBR), the §3.1
road re-segmentation step, synthetic network generators standing in for the
Shenzhen road network, and the network-expansion / shortest-path machinery
(in the style of Papadias et al. [21]) that both the Con-Index construction
and the exhaustive-search baseline rely on.
"""

from repro.network.model import RoadLevel, RoadNetwork, RoadSegment
from repro.network.generator import grid_city, ring_radial_city, random_planar_city
from repro.network.segmentation import resegment
from repro.network.expansion import ExpansionResult, time_bounded_expansion
from repro.network.csr import CSRGraph, expand_slotted
from repro.network.paths import (
    dijkstra_from_segment,
    network_distance,
    shortest_path_segments,
)

__all__ = [
    "RoadLevel",
    "RoadSegment",
    "RoadNetwork",
    "grid_city",
    "ring_radial_city",
    "random_planar_city",
    "resegment",
    "time_bounded_expansion",
    "ExpansionResult",
    "CSRGraph",
    "expand_slotted",
    "dijkstra_from_segment",
    "network_distance",
    "shortest_path_segments",
]
