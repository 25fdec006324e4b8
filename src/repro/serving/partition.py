"""Routing groups over the road network, and the one replica payload.

The partitioner splits the segment set into K *owned* sets by recursive
kd-median bisection over segment midpoints (balanced counts, arbitrary K,
fully deterministic).  An owned set is a **routing group**: the dispatcher
sends a request to the group that owns its start segment, so nearby
requests share one cold sub-batch window.  Every worker process holds the
whole engine, so a group's replica also holds every segment it does not
own (:attr:`ShardSpec.halo`).

The replicated state is one :class:`ShardPayload`: the network (through
the :mod:`repro.io.persist` dict format), the ST-Index directory in its
columnar form (with the original extent pointers), a *sparse* copy of
the simulated disk that carries exactly the pages the directory
references at their original page ids, and the statistics-only speed
model the Con-Index derives from.  Preserving page geometry is what makes
a worker's accounting exactly comparable to the single-process engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.core.engine import ReachabilityEngine
from repro.io.persist import network_to_dict
from repro.network.model import RoadNetwork
from repro.storage.backends import FileBackedDisk


@dataclass(frozen=True)
class ShardSpec:
    """One routing group's segment sets.

    Attributes:
        shard_id: index of the group in the partition plan.
        owned: segments whose requests this group answers.
        halo: segments the group's replica holds but does not own — the
            complement of ``owned`` in the network.
    """

    shard_id: int
    owned: frozenset[int]
    halo: frozenset[int]


@dataclass
class PartitionPlan:
    """A K-way spatial split of the network into routing groups.

    Attributes:
        shards: the group specs, ``shard_id`` == list position.
        owner_of: segment id -> owning group id (every segment owned by
            exactly one group).
    """

    shards: list[ShardSpec] = field(default_factory=list)
    owner_of: dict[int, int] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.shards)


@dataclass
class ShardPayload:
    """Everything a worker process needs to rebuild the replica engine.

    All fields are plain picklable values (dicts, bytes, dataclasses), so
    the payload crosses a ``spawn`` boundary as a Process argument.
    """

    network: dict
    speed_model: dict
    delta_t_s: int
    #: The committed :meth:`TimeListDirectory.columns`.
    directory: dict[str, np.ndarray]
    disk_buffer: bytes
    disk_used: tuple
    page_size: int
    engine_pool_pages: int
    #: Durable-store reference mode: when set, ``disk_buffer``/``disk_used``
    #: are empty and the worker opens this FileBackedDisk store read-only,
    #: faulting in (and checksum-verifying) only the pages its queries
    #: actually touch — the payload ships a path, not the data.
    disk_path: str | None = None


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


def partition_network(
    network: RoadNetwork,
    num_shards: int,
    weights: np.ndarray | None = None,
) -> PartitionPlan:
    """Split ``network`` into ``num_shards`` spatial routing groups.

    Deterministic: kd-median bisection over the CSR midpoint vectors
    (stable ties by row).  With ``num_shards == 1`` the single group owns
    everything.

    Args:
        weights: optional per-CSR-row load weights.  Without them the
            split balances segment *counts*; with them it balances
            weight sums, so group boundaries concentrate where the
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
    everything = frozenset(int(i) for i in csr.ids)
    shards: list[ShardSpec] = []
    owner_of: dict[int, int] = {}
    for shard_id in range(num_shards):
        owned = frozenset(int(i) for i in csr.ids[assignment == shard_id])
        shards.append(ShardSpec(shard_id, owned, everything - owned))
        owner_of.update(dict.fromkeys(owned, shard_id))
    return PartitionPlan(shards=shards, owner_of=owner_of)


def export_shard_payload(
    engine: ReachabilityEngine, delta_t_s: int
) -> ShardPayload:
    """Materialize the spawn-safe replica of a built engine.

    The directory keeps the original extent pointers and the sparse disk
    export keeps the original page geometry, so a worker's reads charge
    exactly the pages the parent engine would charge.
    """
    st_index = engine.st_index(delta_t_s)
    directory = st_index.committed_directory()
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
    return ShardPayload(
        network=network_to_dict(engine.network),
        speed_model=engine.database.export_speed_model(),
        delta_t_s=delta_t_s,
        directory=directory.columns(),
        disk_buffer=buffer,
        disk_used=used,
        page_size=disk.page_size,
        engine_pool_pages=engine.buffer_pool_pages,
        disk_path=disk_path,
    )
