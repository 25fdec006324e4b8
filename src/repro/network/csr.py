"""CSR adjacency and vectorized frontier-at-a-time expansion kernels.

Every query algorithm in the paper (SQMB/MQMB/reverse, Algorithms 1-3)
spends its in-memory time expanding bounding regions over the segment
graph.  This module holds the one shared hot path: a cached CSR (compressed
sparse row) view of the :class:`~repro.network.model.RoadNetwork` —
``int32`` ``indptr``/``indices`` arrays for successors and predecessors,
plus per-row length/twin/midpoint vectors — and numpy kernels that relax
whole frontiers per step over boolean masks instead of walking Python sets
and ``heapq`` entries one segment at a time.

Exactness: :func:`budgeted_expansion` — the one expansion, behind both
:func:`expand_slotted` (arrival array) and
:func:`~repro.network.expansion.time_bounded_expansion` (cover and
frontier) — is *label-setting equivalent* to the classic Dijkstra
implementations it replaces.  The per-slot speed models are
time-dependent and possibly non-FIFO, so it settles labels in Δt
*phases*: within one elapsed-time window ``[kΔt, (k+1)Δt)`` the cost
vector is constant, so the in-window fixpoint is unique and
order-independent, and windows settle in increasing order exactly as a
label-setting Dijkstra pops them.  A plain synchronous Bellman-Ford over
time-dependent costs would *not* be equivalent (it can relax through
intermediate labels a label-setting run never holds); the phase structure
is what makes the kernel exact.  A fixed cost vector is the one-window
case (``delta_t_s = inf``): one phase, relaxed to the unique
shortest-distance fixpoint.

The legacy implementations are preserved under ``tests/reference/`` as
the reference the kernel-equivalence tests run against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.model import RoadNetwork


@dataclass
class CSRGraph:
    """CSR view of a road network's segment graph.

    Rows are dense indices over the segment ids in ascending order;
    ``indices_*`` store *rows*, not segment ids.  Successor edges exclude
    the immediate U-turn onto a two-way twin, exactly like
    :meth:`RoadNetwork.successors` / :meth:`RoadNetwork.predecessors`.

    Attributes:
        ids: row -> segment id (``int64``, ascending).
        row_lookup: segment id -> row (``int64``, ``-1`` for absent ids).
        indptr_out / indices_out: CSR successors (``int32``).
        indptr_in / indices_in: CSR predecessors (``int32``).
        indptr_nbr / indices_nbr: :meth:`RoadNetwork.neighbors`, in its order.
        twin_row: row of the opposite carriageway, ``-1`` for one-way.
        lengths: segment polyline lengths in metres (``float64``).
        mid_x / mid_y: segment midpoint coordinates (``float64``).
    """

    ids: np.ndarray
    row_lookup: np.ndarray
    indptr_out: np.ndarray
    indices_out: np.ndarray
    indptr_in: np.ndarray
    indices_in: np.ndarray
    indptr_nbr: np.ndarray
    indices_nbr: np.ndarray
    twin_row: np.ndarray
    lengths: np.ndarray
    mid_x: np.ndarray
    mid_y: np.ndarray
    _py_out: list[tuple[int, ...]] | None = None
    _py_in: list[tuple[int, ...]] | None = None

    @property
    def n(self) -> int:
        return int(self.ids.size)

    @property
    def identity_ids(self) -> bool:
        """True when segment ids are exactly ``0..n-1`` (rows == ids)."""
        return self.n > 0 and int(self.ids[-1]) == self.n - 1

    def adjacency(self, reverse: bool) -> tuple[np.ndarray, np.ndarray]:
        if reverse:
            return self.indptr_in, self.indices_in
        return self.indptr_out, self.indices_out

    def adjacency_lists(self, reverse: bool) -> list[tuple[int, ...]]:
        """Row-level adjacency as plain Python tuples (built once, cached).

        The scalar Dijkstra fast path for small covers walks these — numpy
        scalar indexing inside a Python loop would cost more than the heap
        operations it feeds.  Tuples of ints leave the cyclic collector's
        tracking at its first pass, so later passes skip them.
        """
        cached = self._py_in if reverse else self._py_out
        if cached is None:
            indptr, indices = self.adjacency(reverse)
            flat = indices.tolist()
            bounds = indptr.tolist()
            cached = [
                tuple(flat[bounds[row]:bounds[row + 1]]) for row in range(self.n)
            ]
            if reverse:
                self._py_in = cached
            else:
                self._py_out = cached
        return cached

    def row_of(self, segment_id: int) -> int:
        row = int(self.row_lookup[segment_id])
        if row < 0:
            raise KeyError(f"unknown segment {segment_id}")
        return row

    def rows_of(self, segment_ids) -> np.ndarray:
        """Map an array of segment ids to rows (all must exist).

        Unknown ids fail loudly: the lookup holds ``-1`` for absent ids,
        which would otherwise fancy-index the *last* row and silently
        corrupt a cover mask.
        """
        arr = np.asarray(segment_ids, dtype=np.int64)
        if self.identity_ids:
            return arr
        rows = self.row_lookup[arr]
        if rows.size and rows.min() < 0:
            unknown = arr[rows < 0]
            raise KeyError(f"unknown segments {unknown[:5].tolist()}")
        return rows

    def ids_of(self, rows: np.ndarray) -> np.ndarray:
        return self.ids[rows]

    def mask_to_id_set(self, mask: np.ndarray) -> set[int]:
        """A boolean row mask as the segment-id set the old code traded in."""
        return set(self.ids[mask].tolist())


def build_csr(network: "RoadNetwork") -> CSRGraph:
    """Materialise the CSR view (cached by :meth:`RoadNetwork.csr`)."""
    ids = np.array(sorted(network.segment_ids()), dtype=np.int64)
    n = int(ids.size)
    max_id = int(ids[-1]) if n else -1
    row_lookup = np.full(max_id + 2, -1, dtype=np.int64)
    row_lookup[ids] = np.arange(n, dtype=np.int64)

    indptr_out = np.zeros(n + 1, dtype=np.int32)
    indptr_in = np.zeros(n + 1, dtype=np.int32)
    out_parts: list[list[int]] = []
    in_parts: list[list[int]] = []
    neighbor_parts = [network.neighbors(segment_id) for segment_id in ids.tolist()]
    twin_row = np.full(n, -1, dtype=np.int64)
    lengths = np.zeros(n, dtype=np.float64)
    mid_x = np.zeros(n, dtype=np.float64)
    mid_y = np.zeros(n, dtype=np.float64)
    for row, segment_id in enumerate(ids.tolist()):
        segment = network.segment(segment_id)
        succ = network.successors(segment_id)
        pred = network.predecessors(segment_id)
        out_parts.append(succ)
        in_parts.append(pred)
        indptr_out[row + 1] = indptr_out[row] + len(succ)
        indptr_in[row + 1] = indptr_in[row] + len(pred)
        if segment.twin_id is not None and network.has_segment(segment.twin_id):
            twin_row[row] = row_lookup[segment.twin_id]
        lengths[row] = segment.length
        mid = segment.midpoint
        mid_x[row], mid_y[row] = mid.x, mid.y
    flat_out = [sid for part in out_parts for sid in part]
    flat_in = [sid for part in in_parts for sid in part]
    indices_out = (
        row_lookup[np.array(flat_out, dtype=np.int64)]
        if flat_out
        else np.empty(0, dtype=np.int64)
    ).astype(np.int32)
    indices_in = (
        row_lookup[np.array(flat_in, dtype=np.int64)]
        if flat_in
        else np.empty(0, dtype=np.int64)
    ).astype(np.int32)
    return CSRGraph(
        ids=ids,
        row_lookup=row_lookup,
        indptr_out=indptr_out,
        indices_out=indices_out,
        indptr_in=indptr_in,
        indices_in=indices_in,
        indptr_nbr=np.cumsum([0] + [len(part) for part in neighbor_parts]),
        indices_nbr=row_lookup[[sid for part in neighbor_parts for sid in part]],
        twin_row=twin_row,
        lengths=lengths,
        mid_x=mid_x,
        mid_y=mid_y,
    )


_EMPTY_ROWS = np.empty(0, dtype=np.int64)


def _frontier_edges(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """Flatten the out-edges of ``frontier`` rows.

    Returns ``(src_pos, dst)`` where ``src_pos`` indexes into ``frontier``
    and ``dst`` holds destination rows, or ``(None, None)`` when the
    frontier has no edges at all.
    """
    starts = indptr[frontier].astype(np.int64)
    counts = indptr[frontier + 1].astype(np.int64) - starts
    total = int(counts.sum())
    if total == 0:
        return None, None
    cum = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    dst = indices[flat].astype(np.int64)
    src_pos = np.repeat(np.arange(frontier.size, dtype=np.int64), counts)
    return src_pos, dst


def _relax_round(
    indptr: np.ndarray,
    indices: np.ndarray,
    dist: np.ndarray,
    frontier: np.ndarray,
    cost: np.ndarray,
    budget_s: float,
) -> np.ndarray:
    """Relax every out-edge of ``frontier`` once; return the improved rows.

    The returned array is deduplicated.  All bookkeeping stays
    proportional to the frontier and its edges — never to the whole
    network — which is what keeps the kernel competitive on small covers.
    """
    src_pos, dst = _frontier_edges(indptr, indices, frontier)
    if src_pos is None:
        return _EMPTY_ROWS
    candidate = dist[frontier][src_pos] + cost[dst]
    ok = candidate <= budget_s
    if not ok.any():
        return _EMPTY_ROWS
    dst, candidate = dst[ok], candidate[ok]
    before = dist[dst]
    np.minimum.at(dist, dst, candidate)
    # Gathered *before* the scatter, `before` is the same for duplicate
    # edges into one row, so any edge into an improved row observes the
    # decrease; np.unique collapses the duplicates.
    improved = dist[dst] < before
    if not improved.any():
        return _EMPTY_ROWS
    return np.unique(dst[improved])


#: Scalar-path tuning: below this cover size a tight heap loop beats numpy
#: dispatch overhead, so expansion starts scalar and escalates to the
#: frontier kernel only once the cover outgrows it (most Con-Index entries
#: — one Δt slot of travel — never do).
ESCALATE_COVER = 256
#: Networks larger than this skip the scalar fast path entirely: the
#: per-call ``cost.tolist()`` conversion would cost more than the kernel.
SCALAR_PATH_MAX_N = 4096


def _unexpanded_rows(
    best: dict[int, float], heap: list[tuple[float, int]]
) -> np.ndarray:
    """Rows whose current label has not been expanded: exactly those with
    a live (non-stale) heap entry."""
    pending = {row for t, row in heap if t == best.get(row)}
    return np.fromiter(pending, dtype=np.int64, count=len(pending))


def _scatter_labels(n: int, best: dict[int, float]) -> np.ndarray:
    dist = np.full(n, np.inf)
    if best:
        rows = np.fromiter(best.keys(), dtype=np.int64, count=len(best))
        dist[rows] = np.fromiter(best.values(), dtype=np.float64, count=len(best))
    return dist


def budgeted_expansion(
    csr: CSRGraph,
    seed_rows: Sequence[int] | np.ndarray,
    budget_s: float,
    delta_t_s: float,
    cost_of_phase: Callable[[int], np.ndarray],
    reverse: bool = False,
    cost_list_of_phase: Callable[[int], list[float]] | None = None,
) -> tuple[dict[int, float], np.ndarray | None]:
    """Shortest arrivals from ``seed_rows`` (at 0.0) within ``budget_s``.

    ``cost_of_phase(k)`` supplies the traversal-cost vector for elapsed
    times in ``[kΔt, (k+1)Δt)``; ``inf`` marks a row impassable.  A fixed
    cost vector is the one-window case, ``delta_t_s = inf``.

    This is the one composition of the expansion, and the only reader of
    the two thresholds.  On networks of at most :data:`SCALAR_PATH_MAX_N`
    rows it starts as a classic heap loop (numpy round overhead would
    dominate a 30-segment cover), walking ``cost_list_of_phase(k)`` — or
    ``cost_of_phase(k).tolist()`` — which it asks for once per window.
    With non-negative costs that loop is label-setting: every popped
    row's label is final and the un-popped labels are genuine path values
    (upper bounds).  If the cover outgrows :data:`ESCALATE_COVER`, those
    labels seed the phase kernel, which settles the remaining windows in
    order: within a window the cost vector is constant (unique fixpoint),
    and a label in window ``k`` can only be improved from windows
    ``<= k`` — exactly the order a label-setting Dijkstra pops them in.

    Returns ``(best, dist)``: the scalar start's ``row -> arrival``
    labels, and the per-row arrival array (``inf`` = not reached), which
    is ``None`` when the expansion finished scalar — ``best`` is then the
    whole answer and callers with small results never pay for an array.
    """
    best: dict[int, float] = {}
    if csr.n <= SCALAR_PATH_MAX_N:
        adjacency = csr.adjacency_lists(reverse)
        inf = float("inf")
        best = {int(row): 0.0 for row in seed_rows}
        heap: list[tuple[float, int]] = [(0.0, row) for row in best]
        heapq.heapify(heap)
        costs: list[float] = []
        window_end = 0.0
        while heap and len(best) <= ESCALATE_COVER:
            time_now, row = heapq.heappop(heap)
            if time_now > best.get(row, inf):
                continue
            if time_now >= window_end:
                # Pops come in non-decreasing time order, so the window
                # only ever moves forward.
                phase = int(time_now // delta_t_s)
                window_end = (phase + 1) * delta_t_s
                costs = (
                    cost_list_of_phase(phase)
                    if cost_list_of_phase is not None
                    else cost_of_phase(phase).tolist()
                )
            for neighbor in adjacency[row]:
                edge_cost = costs[neighbor]
                if edge_cost == inf:
                    continue
                reach = time_now + edge_cost
                if reach > budget_s:
                    continue
                if reach < best.get(neighbor, inf):
                    best[neighbor] = reach
                    heapq.heappush(heap, (reach, neighbor))
        if not heap:
            return best, None
        dist = _scatter_labels(csr.n, best)
        # Unexpanded labels are >= every expanded one (label-setting), so
        # entering the phase loop with them deferred settles the
        # remaining windows in order; earlier phases find nothing to do.
        unsettled = _unexpanded_rows(best, heap)
    else:
        unsettled = np.asarray(seed_rows, dtype=np.int64)
        dist = np.full(csr.n, np.inf)
        dist[unsettled] = 0.0
    indptr, indices = csr.adjacency(reverse)
    deferred = np.zeros(csr.n, dtype=bool)
    deferred[unsettled] = True
    num_phases = int(budget_s // delta_t_s) + 1
    for phase in range(num_phases):
        window_end = (phase + 1) * delta_t_s
        waiting = np.flatnonzero(deferred)
        if waiting.size == 0:
            break
        frontier = waiting[dist[waiting] < window_end]
        if frontier.size == 0:
            continue
        deferred[frontier] = False
        cost = cost_of_phase(phase)
        while frontier.size:
            improved = _relax_round(
                indptr, indices, dist, frontier, cost, budget_s
            )
            in_window = dist[improved] < window_end
            frontier = improved[in_window]
            deferred[improved[~in_window]] = True
            # An improvement can pull a deferred row back into this
            # window; it is in `improved` with its new label, so it joins
            # the frontier and its deferred flag clears.
            deferred[frontier] = False
    return best, dist


def expand_slotted(
    csr: CSRGraph,
    seed_rows: Sequence[int] | np.ndarray,
    budget_s: float,
    delta_t_s: float,
    cost_of_phase: Callable[[int], np.ndarray],
    reverse: bool = False,
    cost_list_of_phase: Callable[[int], list[float]] | None = None,
) -> np.ndarray:
    """:func:`budgeted_expansion` as a per-row arrival array (residual carry).

    The slot progression is relative — phase ``k`` is the ``k``-th Δt of
    elapsed time, the same quantization as the memoized Con-Index hops —
    so covers stay shareable across queries in the same start slot.
    Unreachable (or over-budget) rows hold ``inf``.
    """
    best, dist = budgeted_expansion(
        csr, seed_rows, budget_s, delta_t_s, cost_of_phase, reverse,
        cost_list_of_phase,
    )
    return _scatter_labels(csr.n, best) if dist is None else dist


def close_twins_mask(csr: CSRGraph, cover: np.ndarray) -> None:
    """Add the opposite carriageway of every covered two-way road, in place."""
    rows = np.flatnonzero(cover)
    twins = csr.twin_row[rows]
    twins = twins[twins >= 0]
    if twins.size:
        cover[twins] = True
