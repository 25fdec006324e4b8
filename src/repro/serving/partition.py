"""Spatial partitioning of a road network into shard slices.

The partitioner splits the segment set into K *owned* sets by recursive
kd-median bisection over segment midpoints (balanced counts, arbitrary K,
fully deterministic), then replicates a **halo ring** around each shard:
every segment within ``halo_m`` metres of an owned midpoint.  The halo is
sized from the serving contract — the fastest observed speed, the maximum
supported query duration and the index granularity Δt — so any bounded
expansion seeded on an owned segment stays inside the shard's
sub-network and a worker answers its sub-requests without talking to its
neighbours.

A shard's materialized state is a :class:`ShardPayload`: the sub-network
(owned + halo, exported through the :mod:`repro.io.persist` dict format),
the ST-Index directory slice (its rows of the columnar directory form, with
the original extent pointers), a
*sparse* copy of the simulated disk that carries exactly the referenced
pages at their original page ids, and the statistics-only speed model the
Con-Index derives from.  Preserving page geometry is what makes shard
accounting exactly comparable to the single-process engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.core.engine import ReachabilityEngine
from repro.io.persist import network_to_dict
from repro.network.model import RoadNetwork
from repro.storage.backends import FileBackedDisk

#: Safety margin, in maximum segment lengths, added to the halo radius on
#: top of the speed-and-duration travel bound: covers midpoint-vs-path
#: slack at both ends of an expansion plus the one extra neighbour hop
#: the trace-back search examines beyond its bounding region.
HALO_SEGMENT_SLACK = 6


@dataclass(frozen=True)
class ShardSpec:
    """One shard's segment sets.

    Attributes:
        shard_id: index of the shard in the partition plan.
        owned: segments this shard answers queries for.
        halo: replicated ring segments (readable, never owning queries).
    """

    shard_id: int
    owned: frozenset[int]
    halo: frozenset[int]

    @property
    def members(self) -> frozenset[int]:
        return self.owned | self.halo


@dataclass
class PartitionPlan:
    """A K-way spatial partition with halo replication.

    Attributes:
        shards: the shard specs, ``shard_id`` == list position.
        owner_of: segment id -> owning shard id (every segment owned by
            exactly one shard).
        halo_m: replication radius in metres.
        max_duration_s: longest query duration the halo contract covers.
        v_max_mps: fastest observed speed used to size the halo.
    """

    shards: list[ShardSpec] = field(default_factory=list)
    owner_of: dict[int, int] = field(default_factory=dict)
    halo_m: float = 0.0
    max_duration_s: float = 0.0
    v_max_mps: float = 0.0

    @property
    def num_shards(self) -> int:
        return len(self.shards)


@dataclass
class ShardPayload:
    """Everything a worker process needs to rebuild one shard engine.

    All fields are plain picklable values (dicts, bytes, dataclasses), so
    the payload crosses a ``spawn`` boundary as a Process argument.
    """

    shard_id: int
    network: dict
    speed_model: dict
    delta_t_s: int
    #: The shard members' :meth:`TimeListDirectory.columns`.
    directory: dict[str, np.ndarray]
    disk_buffer: bytes
    disk_used: tuple
    page_size: int
    read_latency_ms: float
    write_latency_ms: float
    engine_pool_pages: int
    st_pool_pages: int
    record_cache_size: int
    #: Durable-store reference mode: when set, ``disk_buffer``/``disk_used``
    #: are empty and the worker opens this FileBackedDisk store read-only,
    #: faulting in (and checksum-verifying) only the pages its shard's
    #: pointers actually touch — the payload ships a path, not the data.
    disk_path: str | None = None


def reach_m(duration_s: float, delta_t_s: float, v_max_mps: float,
            max_segment_m: float) -> float:
    """Upper bound on how far (in metres, midpoint to midpoint) a bounded
    expansion seeded at one segment can reach for a query of
    ``duration_s``.

    The slot-quantized far bound travels at most ``duration + 2Δt``
    seconds at the fastest observed speed (ceil quantization plus the
    carried partial slot), and the segment-length slack absorbs the
    midpoint-vs-path difference at both ends plus TBS's one extra
    neighbour hop past the region boundary.
    """
    return (
        (duration_s + 2.0 * delta_t_s) * v_max_mps
        + HALO_SEGMENT_SLACK * max_segment_m
    )


def _kd_assign(
    mid_x: np.ndarray,
    mid_y: np.ndarray,
    weights: np.ndarray | None,
    rows: np.ndarray,
    num_shards: int,
    first_id: int,
    out: np.ndarray,
) -> None:
    """Recursively bisect ``rows`` into ``num_shards`` contiguous spatial
    blocks, writing shard ids into ``out``.

    Splits along the wider axis at the count-proportional rank (or, with
    ``weights``, the weight-proportional rank), so K need not be a power
    of two and shard populations stay balanced to ±1.  Sorting is stable
    with the row index as the final key, making the assignment a pure
    function of the midpoint geometry (and weights).
    """
    if num_shards <= 1 or rows.size == 0:
        out[rows] = first_id
        return
    xs, ys = mid_x[rows], mid_y[rows]
    span_x = xs.max() - xs.min() if rows.size else 0.0
    span_y = ys.max() - ys.min() if rows.size else 0.0
    axis = xs if span_x >= span_y else ys
    order = np.lexsort((rows, axis))
    left_shards = num_shards // 2
    right_shards = num_shards - left_shards
    if weights is None:
        cut = round(rows.size * left_shards / num_shards)
    else:
        cum = np.cumsum(weights[rows][order])
        cut = int(np.searchsorted(cum, cum[-1] * left_shards / num_shards))
    # every descendant must receive at least one row
    cut = min(max(cut, left_shards), rows.size - right_shards)
    _kd_assign(
        mid_x, mid_y, weights, rows[order[:cut]], left_shards, first_id, out
    )
    _kd_assign(
        mid_x, mid_y, weights, rows[order[cut:]], right_shards,
        first_id + left_shards, out,
    )


def _halo_rows(
    mid_x: np.ndarray,
    mid_y: np.ndarray,
    owned_rows: np.ndarray,
    halo_m: float,
    chunk: int = 512,
) -> np.ndarray:
    """Rows (owned excluded) whose midpoint lies within ``halo_m`` of any
    owned midpoint."""
    n = mid_x.size
    owned_mask = np.zeros(n, dtype=bool)
    owned_mask[owned_rows] = True
    candidates = np.flatnonzero(~owned_mask)
    if candidates.size == 0 or owned_rows.size == 0:
        return np.empty(0, dtype=np.int64)
    ox, oy = mid_x[owned_rows], mid_y[owned_rows]
    keep: list[np.ndarray] = []
    limit_sq = halo_m * halo_m
    for start in range(0, candidates.size, chunk):
        rows = candidates[start : start + chunk]
        dx = mid_x[rows][:, None] - ox[None, :]
        dy = mid_y[rows][:, None] - oy[None, :]
        near = ((dx * dx + dy * dy).min(axis=1)) <= limit_sq
        keep.append(rows[near])
    return np.concatenate(keep) if keep else np.empty(0, dtype=np.int64)


def partition_network(
    network: RoadNetwork,
    num_shards: int,
    halo_m: float,
    max_duration_s: float = 0.0,
    v_max_mps: float = 0.0,
    weights: np.ndarray | None = None,
) -> PartitionPlan:
    """Split ``network`` into ``num_shards`` spatial shards with halos.

    Deterministic: kd-median bisection over the CSR midpoint vectors
    (stable ties by row), halo by euclidean midpoint distance.  With
    ``num_shards == 1`` the single shard owns everything and the halo is
    empty.

    Args:
        weights: optional per-CSR-row load weights.  Without them the
            split balances segment *counts*; with them it balances
            weight sums, so shard boundaries concentrate where the
            weight (e.g. trajectory-visit density — the serving layer's
            proxy for query load) concentrates.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    csr = network.csr()
    n = csr.n
    if n == 0:
        raise ValueError("cannot partition an empty network")
    num_shards = min(num_shards, n)
    assignment = np.zeros(n, dtype=np.int64)
    _kd_assign(
        csr.mid_x, csr.mid_y, weights, np.arange(n, dtype=np.int64),
        num_shards, 0, assignment,
    )
    shards: list[ShardSpec] = []
    owner_of: dict[int, int] = {}
    for shard_id in range(num_shards):
        owned_rows = np.flatnonzero(assignment == shard_id)
        if num_shards == 1:
            halo_rows = np.empty(0, dtype=np.int64)
        else:
            halo_rows = _halo_rows(csr.mid_x, csr.mid_y, owned_rows, halo_m)
        owned_ids = frozenset(int(i) for i in csr.ids[owned_rows])
        halo_ids = frozenset(int(i) for i in csr.ids[halo_rows])
        shards.append(
            ShardSpec(shard_id=shard_id, owned=owned_ids, halo=halo_ids)
        )
        for segment_id in owned_ids:
            owner_of[segment_id] = shard_id
    return PartitionPlan(
        shards=shards,
        owner_of=owner_of,
        halo_m=halo_m,
        max_duration_s=max_duration_s,
        v_max_mps=v_max_mps,
    )


def build_subnetwork(network: RoadNetwork, segment_ids: frozenset[int]) -> RoadNetwork:
    """The induced sub-network over ``segment_ids``.

    Nodes and segments are inserted in the full network's iteration
    order, so id-order-dependent tie-breaks (nearest-segment lookups)
    resolve identically on the slice.  Dangling ``twin_id`` references
    (twin outside the slice) are legal: every consumer guards with
    ``has_segment``.
    """
    sub = RoadNetwork()
    needed_nodes: set[int] = set()
    for segment in network.segments():
        if segment.segment_id in segment_ids:
            needed_nodes.add(segment.start_node)
            needed_nodes.add(segment.end_node)
    for node_id, point in network.nodes():
        if node_id in needed_nodes:
            sub.add_node(node_id, point)
    for segment in network.segments():
        if segment.segment_id in segment_ids:
            sub.add_segment(segment)
    return sub


def export_shard_payload(
    engine: ReachabilityEngine,
    spec: ShardSpec,
    delta_t_s: int,
) -> ShardPayload:
    """Materialize one shard's spawn-safe slice from a built engine.

    The ST-Index slice — the shard members' rows of the committed
    directory — keeps the original extent pointers and the sparse disk
    export keeps the original page geometry, so the shard worker's reads
    charge exactly the pages the full engine would charge.
    """
    st_index = engine.st_index(delta_t_s)
    members = spec.members
    directory = st_index.committed_directory().select(members)
    disk = engine.disk
    disk_path: str | None = None
    if isinstance(disk, FileBackedDisk) and disk.is_synced:
        # Reference mode: every page is durable in the store, so the
        # payload ships the path instead of the buffer.  Unsynced disks
        # (or the RAM backend) fall back to the sparse buffer export.
        buffer, used = b"", ()
        disk_path = disk.path
    else:
        buffer, used = disk.export_sparse_state(directory.page_ids().tolist())
    subnetwork = build_subnetwork(engine.network, members)
    return ShardPayload(
        shard_id=spec.shard_id,
        network=network_to_dict(subnetwork),
        speed_model=engine.database.export_speed_model(members),
        delta_t_s=delta_t_s,
        directory=directory.columns(),
        disk_buffer=buffer,
        disk_used=used,
        page_size=disk.page_size,
        read_latency_ms=disk.read_latency_ms,
        write_latency_ms=disk.write_latency_ms,
        engine_pool_pages=engine.buffer_pool_pages,
        st_pool_pages=st_index.pool.capacity,
        record_cache_size=st_index.record_cache_size,
        disk_path=disk_path,
    )


def max_segment_length_m(network: RoadNetwork) -> float:
    """The longest segment in the network (halo sizing input)."""
    return max((seg.length for seg in network.segments()), default=0.0)
