"""Algorithm 1: s-query maximum/minimum bounding-region search (SQMB).

Starting from the query's road segment ``r0``, SQMB hops through the
Con-Index one Δt slot at a time.  Exactly as the thesis's Algorithm 1
(lines 5–9) prescribes, the *entire* accumulated bounding set is expanded
at every step (``B = B ∪ F(r, T+l)`` for all ``r in R``, then ``R = B``),
for ``k`` steps with ``k·Δt <= L < (k+1)·Δt``; each hop grants a fresh Δt
of travel at the slot's historical extreme speeds, so after ``k`` hops the
accumulated cover is every segment the Con-Index vouches reachable within
``L``.  The region's outer boundary — the solid circles of Fig. 3.4 — is
the set of cover segments with at least one successor outside the cover.

No trajectory time lists are touched here: the whole point is that the
bounding region comes straight out of the Con-Index, skipping the disk
reads an exhaustive expansion would pay near the start location.

Slot progression is *relative* and cyclic: hop ``k`` uses slot
``(slot_of(T) + k) mod num_slots``, the same wrap-around the residual
carry has always applied — time-of-day wraps at midnight rather than
clamping at the day's last slot, so a query near midnight sees one
consistent speed model.

The search is written once, in :func:`bounding_region`, for any number of
seeds and either direction: Algorithm 3 (:mod:`~repro.core.mqmb`) and the
reverse query's bounds (:mod:`~repro.core.reverse`) delegate to it.

The in-memory work runs on the CSR kernels of :mod:`repro.network.csr`:
covers are boolean row masks, per-step entry unions are fancy-index
stores, and the residual carry is the slot-phased vectorized expansion.
The classic set/heap implementations live on under ``tests/reference/``
as the equivalence baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.con_index import ConnectionIndex, Kind
from repro.core.query import BoundingRegion
from repro.network.csr import (
    CSRGraph,
    close_twins_mask,
    cover_boundary_mask,
    expand_slotted,
)
from repro.network.model import RoadNetwork


def slot_aware_expansion(
    con_index: ConnectionIndex,
    seeds: list[int],
    start_time_s: float,
    budget_s: float,
    kind: Kind = "far",
) -> set[int]:
    """Continuous-time expansion under per-slot speed models.

    Algorithm 1's per-slot entry hops quantize travel to whole segments
    per slot: a segment whose traversal time exceeds Δt is never crossed,
    because each hop restarts from segment boundaries and intra-segment
    progress is lost.  On networks with long segments and a fine index
    (e.g. Δt = 1 min on 800 m segments) that silently clips the *maximum*
    bounding region — an upper bound that under-covers makes trace-back
    miss truly reachable segments.  This expansion carries residual
    progress across slot boundaries (the traversal cost of each segment is
    taken from the slot the traveller is in when entering it); its cover
    is unioned into the Far bound, so the bound never under-covers while
    the memoised Con-Index entries remain the fast path.

    Slot progression is *relative*: elapsed time ``t`` maps to slot
    ``(slot_of(T) + t // Δt) mod num_slots``, the same quantization as the
    entry hops.  The cover therefore depends only on the start slot (not
    the sub-slot start time), which is what makes bounding regions exactly
    shareable across queries in the same slot.
    """
    csr = con_index.network.csr()
    dist = _slot_expansion_dist(
        con_index, csr, csr.rows_of(list(seeds)), start_time_s, budget_s, kind
    )
    return csr.mask_to_id_set(np.isfinite(dist))


def _slot_expansion_dist(
    con_index: ConnectionIndex,
    csr: CSRGraph,
    seed_rows: np.ndarray,
    start_time_s: float,
    budget_s: float,
    kind: Kind,
) -> np.ndarray:
    """Residual-carry arrivals via the slot-phased CSR kernel."""
    start_slot = con_index.slot_of(start_time_s)
    num_slots = con_index.num_slots

    def cost_of_phase(phase: int) -> np.ndarray:
        return con_index.travel_time_vector(
            kind, (start_slot + phase) % num_slots
        )

    def cost_list_of_phase(phase: int) -> list[float]:
        return con_index.travel_time_list(
            kind, (start_slot + phase) % num_slots
        )

    return expand_slotted(
        csr,
        seed_rows,
        budget_s,
        float(con_index.delta_t_s),
        cost_of_phase,
        reverse=kind.endswith("_rev"),
        cost_list_of_phase=cost_list_of_phase,
    )


def close_under_twins(network: RoadNetwork, cover: set[int]) -> None:
    """Add the opposite carriageway of every covered two-way road.

    Reachability (Eq. 3.1) is road-level — the probability estimator merges
    a segment's time lists with its twin's — so bounding regions must be
    road-level too, or the trace-back would treat the far carriageway of a
    reachable road as out of bounds.
    """
    for segment_id in list(cover):
        twin = network.segment(segment_id).twin_id
        if twin is not None and network.has_segment(twin):
            cover.add(twin)


def region_boundary(
    network: RoadNetwork, cover: set[int], reverse: bool = False
) -> set[int]:
    """The outer shell of a cover: members with an escape successor.

    Args:
        network: road network.
        cover: segment set whose shell to compute.
        reverse: use predecessors as the escape relation (for the backward
            bounding regions of reverse reachability queries).
    """
    csr = network.csr()
    mask = np.zeros(csr.n, dtype=bool)
    if cover:
        mask[csr.rows_of(sorted(cover))] = True
    return _boundary_id_set(csr, mask, cover, reverse)


def _boundary_id_set(
    csr: CSRGraph, cover: np.ndarray, cover_ids: set[int], reverse: bool = False
) -> set[int]:
    """:func:`region_boundary` over a cover already held as a row mask."""
    boundary = csr.mask_to_id_set(cover_boundary_mask(csr, cover, reverse))
    if not boundary and cover_ids:
        # A saturated cover on a network with no dead ends (e.g. a ring
        # city) has no escape edges; the bound then prunes nothing, and the
        # trace-back must examine the whole cover.
        return set(cover_ids)
    return boundary


def _entry_hops(
    con_index: ConnectionIndex,
    csr: CSRGraph,
    cover: np.ndarray,
    start_slot: int,
    steps: int,
    kind: Kind,
) -> None:
    """Algorithm 1's accumulate-and-rehop loop over a boolean row mask.

    Every covered segment's entry is unioned into the mask per step; the
    per-entry union is one fancy-index store of the entry's cached id
    array instead of a Python set union.

    Entries are fully determined by ``(segment, kind, hour)`` — speed
    bounds are hourly — so once a segment's entry has been unioned under
    a given hour, re-expanding it at a later same-hour step can add
    nothing (the cover only grows).  A per-row hour bitmask skips those
    no-op fetches, which turns the classic O(cover x steps) entry-fetch
    pattern into O(cover) per distinct hour the query spans.
    """
    num_slots = con_index.num_slots
    expanded_hours = np.zeros(csr.n, dtype=np.uint32)
    for step in range(steps):
        slot = (start_slot + step) % num_slots
        hour_bit = np.uint32(1 << con_index.slot_hour(slot))
        rows = np.flatnonzero(cover & ((expanded_hours & hour_bit) == 0))
        for segment_id in csr.ids_of(rows).tolist():
            entry = con_index.entry(segment_id, slot, kind)
            cover[csr.rows_of(entry.cover_ids())] = True
        expanded_hours[rows] |= hour_bit


def _claim_nearest_seed(
    csr: CSRGraph, seed_rows: np.ndarray, open_cover: np.ndarray, cover: np.ndarray
) -> np.ndarray:
    """§3.3.2's overlap elimination: the seed index claiming each cover row.

    Each covered segment is claimed once, by its nearest seed (``rs =
    argmin dis(r', b)`` over segment midpoints, ties to the earliest seed),
    and so expanded on that seed's behalf — never once per overlapping
    region.  The claim depends only on the row, not on the step that
    covered it, so the whole pre-closure cover ``open_cover`` is claimed
    in one ``argmin`` over a (rows × seeds) distance matrix; the twins the
    road-level closure added to ``cover`` inherit their carriageway's seed.
    """
    seed_x = csr.mid_x[seed_rows]
    seed_y = csr.mid_y[seed_rows]

    def claim(rows: np.ndarray) -> np.ndarray:
        distance = np.hypot(
            csr.mid_x[rows, None] - seed_x[None, :],
            csr.mid_y[rows, None] - seed_y[None, :],
        )
        return np.argmin(distance, axis=1)

    claimed_by = np.full(csr.n, -1, dtype=np.int64)
    claimed_by[seed_rows] = claim(seed_rows)
    for row in seed_rows.tolist():
        twin_row = int(csr.twin_row[row])
        if twin_row >= 0 and claimed_by[twin_row] < 0:
            claimed_by[twin_row] = claimed_by[row]
    new_rows = np.flatnonzero(open_cover & (claimed_by < 0))
    claimed_by[new_rows] = claim(new_rows)
    # Closure twins inherit (falling back to the first seed, as the
    # classic code did).
    for row in np.flatnonzero(cover & (claimed_by < 0)).tolist():
        twin_row = int(csr.twin_row[row])
        if twin_row >= 0 and claimed_by[twin_row] >= 0:
            claimed_by[row] = claimed_by[twin_row]
        else:
            claimed_by[row] = 0
    return claimed_by


def bounding_region(
    con_index: ConnectionIndex,
    seeds: list[int],
    start_time_s: float,
    duration_s: float,
    kind: str = "far",
    reverse: bool = False,
) -> BoundingRegion:
    """The bounding-region search behind Algorithms 1 and 3, either direction.

    All seeds grow *together* over one accumulated cover (§3.3.2: MQMB is
    SQMB started from several segments at once), so an m-query pays
    roughly for its largest single region instead of the sum of all of
    them, and an s-query is the one-seed case.

    Args:
        con_index: the Connection Index.
        seeds: the start segments ``R0`` (``[r0]`` for an s-query, the
            target segment for a reverse query); duplicates are dropped,
            order kept.
        start_time_s: ``T``.
        duration_s: ``L``; at least one Δt hop is always taken (a query
            shorter than the index granularity still needs a first-slot
            bound).
        kind: ``"far"`` for the maximum bounding region, ``"near"`` for the
            minimum one.
        reverse: expand backwards over predecessors (the Con-Index's
            ``kind + "_rev"`` entries) and take the predecessor boundary:
            who can *reach* the seeds within ``L``.

    Returns:
        The accumulated cover, its outer boundary, and ``seed_of`` mapping
        every cover segment to the seed that claimed it (trace-back picks
        the probability estimator by it).
    """
    if kind not in ("far", "near"):
        raise ValueError(f"kind must be 'far' or 'near', got {kind!r}")
    if not seeds:
        raise ValueError("m-query needs at least one start segment")
    seeds = list(dict.fromkeys(seeds))
    entry_kind = f"{kind}_rev" if reverse else kind
    csr = con_index.network.csr()
    delta_t = con_index.delta_t_s
    steps = max(1, int(duration_s // delta_t))
    seed_rows = csr.rows_of(seeds)
    cover = np.zeros(csr.n, dtype=bool)
    cover[seed_rows] = True
    # A traveller standing on a two-way road may leave in either direction,
    # so both carriageways of every seed road start the expansion.
    twin_rows = csr.twin_row[seed_rows]
    cover[twin_rows[twin_rows >= 0]] = True
    expansion_rows = np.flatnonzero(cover)
    _entry_hops(
        con_index, csr, cover, con_index.slot_of(start_time_s), steps, entry_kind
    )
    if kind == "far":
        # Top up with residual-carry expansion so the upper bound also
        # crosses segments whose traversal time exceeds one Δt slot.
        dist = _slot_expansion_dist(
            con_index, csr, expansion_rows, start_time_s, steps * delta_t,
            entry_kind,
        )
        cover |= np.isfinite(dist)
    open_cover = cover.copy() if len(seeds) > 1 else None
    close_twins_mask(csr, cover)
    cover_rows = np.flatnonzero(cover)
    cover_id_list = csr.ids_of(cover_rows).tolist()
    cover_ids = set(cover_id_list)
    if open_cover is None:
        # One seed: every claim is that seed, no claim arrays needed.
        seed_of = dict.fromkeys(cover_id_list, seeds[0])
    else:
        claimed_by = _claim_nearest_seed(csr, seed_rows, open_cover, cover)
        seed_of = {
            segment_id: seeds[seed_index]
            for segment_id, seed_index in zip(
                cover_id_list, claimed_by[cover_rows].tolist()
            )
        }
    return BoundingRegion(
        cover=cover_ids,
        boundary=_boundary_id_set(csr, cover, cover_ids, reverse),
        seed_of=seed_of,
    )


def sqmb_bounding_region(
    con_index: ConnectionIndex,
    start_segment: int,
    start_time_s: float,
    duration_s: float,
    kind: Kind = "far",
) -> BoundingRegion:
    """Run Algorithm 1 from ``r0 = start_segment`` (resolved from the query
    location via ST-Index): :func:`bounding_region` with one seed."""
    return bounding_region(
        con_index, [start_segment], start_time_s, duration_s, kind
    )
