"""Algorithm 2: Trace Back Search (TBS).

TBS refines the maximum bounding region into the Prob-reachable region.
Its first wave is the *outer* boundary of the maximum bounding region and
the minimum one (reachable within L, not surely with ``Prob``).  A segment
whose Eq. 3.1 probability meets ``Prob`` is accepted (and, per the
thesis's closer-is-more-reachable monotonicity assumption, not expanded);
a failing segment pushes its not-yet-visited neighbours — minus Bmin —
onto the queue.  Visited marking guarantees each segment is examined once
(the ``r*`` example of Fig. 3.5).  Seeds capped below ``Prob`` never get
here (:func:`~repro.core.executors.sqmb_tbs.bounded_front`).

Every wave lies in Bmax and Bmin, so a search gathers them once,
uncharged, and probes each seed against them once
(:meth:`~repro.core.prob_kernel.ColumnarEq31Estimator.prefetch`,
``vouched``).  A segment's probability is a pure function of the trajectory
data, and its replayed consultation reaches ``Prob`` iff some seed's value
does, so the waves — each the pending frontier, in FIFO order — run on
pass/fail alone.  Then one call to the columnar kernel
(:meth:`~repro.core.prob_kernel.ColumnarEq31Estimator.probabilities`)
replays every wave's claimer-then-fallback order, caches and counters and
charges the pool once, so the examined set, the probabilities and the
charged reads are *identical* to the one-segment-at-a-time loop (the
baseline under ``tests/reference/``).

The returned region is every accepted segment and the unexamined
interior: what a flood fill from the seeds reaches in the maximum cover
without crossing a *failed* segment — the part TBS never read trajectory
data for.  Inside Bmax this flood, the monotonicity assumption, is what
can still differ from Eq. 3.1: it can add a segment below ``Prob`` or
miss an interior that failed segments cut off from the seeds.

A serial batch's run of ``LOCKSTEP_MIN_RUN`` or more consecutive bounded
members (:func:`~repro.core.executors.sqmb_tbs.execute_lockstep`) runs in
*lock step*, as three array passes over the whole run: its rings gathered
as columns and probed once per sieved key, the waves as a BFS over masks,
and one bookkeeping pass that replays the serial checks, counters and
charge order.  It charges nothing: each member records its page ids for
the driver to replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from time import perf_counter

import numpy as np

from repro.core.directory import _ramp
from repro.core.prob_kernel import SCALAR_EVAL_MAX_VISITS, ColumnarEq31Estimator
from repro.core.probability import ProbabilityEstimator
from repro.core.query import BoundingRegion
from repro.core.st_index import KEY_DATE_SHIFT
from repro.network.model import RoadNetwork


@dataclass
class TraceBackResult:
    """Outcome of one trace-back search.

    Attributes:
        region: the final Prob-reachable segment set.
        passed: segments that explicitly met the probability threshold.
        failed: segments that were examined and fell short.
        probabilities: every probability actually computed.
        wave_sizes: members per evaluation wave, in dequeue order (the
            scalar reference records waves of one).
    """

    region: set[int] = field(default_factory=set)
    passed: set[int] = field(default_factory=set)
    failed: set[int] = field(default_factory=set)
    probabilities: dict[int, float] = field(default_factory=dict)
    wave_sizes: list[int] = field(default_factory=list)

    @property
    def examined(self) -> int:
        return len(self.passed) + len(self.failed)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # multiplicative hash of the key sieve
_COUNTERS = ("checks", "kernel_evals", "scalar_evals", "batched_record_reads", "prefetched_pages")


@dataclass
class LockstepSearch:
    """A lock-step member: Algorithm 2's inputs (every estimator live), the page ids it
    would charge serially (fixed sides, then its waves) and its share of the run's time."""

    estimators: dict[int, ColumnarEq31Estimator]
    prob: float
    max_region: BoundingRegion
    min_region: BoundingRegion
    charges: list[np.ndarray] | None
    wall_s: float = 0.0


def trace_back_search(
    network: RoadNetwork,
    estimators: dict[int, ProbabilityEstimator] | list[LockstepSearch],
    prob: float = 0.0,
    max_region: BoundingRegion | None = None,
    min_region: BoundingRegion | None = None,
) -> TraceBackResult | list[TraceBackResult]:
    """Run Algorithm 2 over (possibly multi-seed) bounding regions — or,
    given a list of :class:`LockstepSearch` members, run them in lock step.

    Args:
        network: road network supplying ``neighbor(r)``.
        estimators: per-seed probability estimators; for an s-query this is
            ``{r0: estimator}``, for an m-query one per start segment: each
            examined segment is tested against the seed that claimed it in
            the bounding region's ``seed_of`` attribution (the first
            estimator for an unclaimed one), then against the others while
            it stays below ``prob``.  An empty dict yields an empty result:
            with nothing to vouch for any segment, nothing is Prob-reachable.
        prob: the query's probability threshold.
        max_region: output of SQMB/MQMB with kind="far".
        min_region: output of SQMB/MQMB with kind="near".

    Returns:
        The Prob-reachable region and bookkeeping sets.
    """
    if isinstance(estimators, list):
        return _lockstep(network, estimators)
    result = TraceBackResult()
    if not estimators:
        return result
    max_cover = max_region.cover
    min_cover = min_region.cover
    lead = next(iter(estimators.values()))
    # Every wave lies in Bmax and Bmin, the first in Bmax's boundary and Bmin: one
    # gather and, per seed, one probe for all; the waves then run on pass/fail alone.
    lead.prefetch(sorted(max_cover | min_cover))
    vouched = lead.vouched(estimators, prob)
    queue = sorted(max_region.boundary | min_cover)
    visited: set[int] = set(queue)
    examined: list[int] = []
    while queue:
        result.wave_sizes.append(len(queue))
        examined += queue
        wave, queue = queue, []
        for segment_id in wave:
            if segment_id in vouched:
                continue
            for neighbor in network.neighbors(segment_id):
                # Never outside the maximum bound; Algorithm 2 line 9: neighbor(r) - Bmin.
                if neighbor not in visited and neighbor in max_cover and neighbor not in min_cover:
                    visited.add(neighbor)
                    queue.append(neighbor)
    # One replay of every wave's bookkeeping, ending in one charge.
    values = lead.probabilities(examined, estimators, max_region.seed_of, prob, result.wave_sizes)
    result.probabilities = dict(zip(examined, values))
    result.passed = vouched.intersection(examined)
    result.failed = set(examined) - result.passed

    # Assemble the final region: accepted segments + the unexamined interior
    # reachable from the seeds without crossing a failed segment.
    result.region = set(result.passed)
    seeds = [seed for seed in estimators if seed in max_cover]
    flood: deque[int] = deque(seeds)
    seen: set[int] = set(seeds)
    while flood:
        segment_id = flood.popleft()
        if segment_id in result.failed:
            continue
        result.region.add(segment_id)
        for neighbor in network.neighbors(segment_id):
            if neighbor not in seen and neighbor in max_cover and neighbor not in result.failed:
                seen.add(neighbor)
                flood.append(neighbor)
    return result


def _lockstep(network: RoadNetwork, searches: list[LockstepSearch]) -> list[TraceBackResult]:
    """Rows ``(member, segment)`` in three passes.  1. The ring: one column gather per
    (ST-Index, candidate plan); each sieved key is looked up once in the fixed sides'
    sorted union, and an equal key counts toward ``m*`` of its estimator's pair if that
    estimator has the key's road in the run and reads its source — a row passes iff some
    estimator of its member reaches ``prob``.  2. The waves, a BFS over masks.  3.
    Bookkeeping in (wave, queue) order: values as a ``cummax`` over the claimer-then-
    fallback order, checks and charges at the first consulted occurrence of each
    (estimator, road), the kernel/scalar split per (estimator, wave).  Values, sets,
    wave sizes and estimator counters (not caches) equal the serial search's."""
    started = perf_counter()
    csr = network.csr()
    n, twin, ids = csr.n, csr.twin_row, csr.ids
    road_of = np.where(twin >= 0, np.minimum(np.arange(n), twin), np.arange(n))
    indptr, neighbors = csr.indptr_nbr, csr.indices_nbr
    ests = [e for search in searches for e in search.estimators.values()]
    counts = np.array([len(search.estimators) for search in searches])
    lead, width, members = np.cumsum(counts) - counts, int(counts.max()), len(searches)
    rot = np.array([[c] + [k for k in range(width) if k != c] for c in range(width)])
    seats = [{seed: k for k, seed in enumerate(search.estimators)} for search in searches]
    prob, days = np.array([s.prob for s in searches]), np.array([e.num_days for e in ests])
    sources = list(dict.fromkeys((e.index, e._candidate_plan) for e in ests))
    group = np.array([sources.index((e.index, e._candidate_plan)) for e in ests])
    # The fixed sides' union, sorted, each key with the estimator holding it.
    fixed = np.concatenate([e._fixed_keys for e in ests])
    holder = np.repeat(np.arange(len(ests)), [e._fixed_keys.size for e in ests])
    by_key = np.argsort(fixed)
    fixed, holder = fixed[by_key], holder[by_key]
    bits = min(24, max(16, (32 * fixed.size).bit_length()))
    sieve, drop = np.zeros(1 << bits, dtype=bool), np.uint64(64 - bits)
    sieve[(fixed.view(np.uint64) * _GOLDEN) >> drop] = True
    maxm, minm, first, passed, failed, reach = np.zeros((6, members, n), dtype=bool)
    for q, search in enumerate(searches):
        for mask, cover in ((maxm, search.max_region.cover), (minm, search.min_region.cover)):
            mask[q, csr.rows_of(np.fromiter(cover, np.int64, len(cover)))] = True
    wave = [csr.rows_of(sorted(s.max_region.boundary | s.min_region.cover)) for s in searches]
    wq, wr = np.repeat(np.arange(members), [w.size for w in wave]), np.concatenate(wave)
    first[wq, wr] = True
    # 1. The ring (Bmax and Bmin; the first wave is Bmax's boundary and Bmin): every
    # pair a wave can consult.
    rq, rr = np.nonzero(maxm | minm)
    uq, ur = np.divmod(np.unique(rq * n + road_of[rr]), n)
    pq, pe, pr = uq.repeat(counts[uq]), _ramp(lead[uq], counts[uq]), ur.repeat(counts[uq])
    pair_of = np.full((len(ests), n), -1)
    pair_of[pe, pr] = np.arange(pe.size)
    slot, columns, gathered = np.full((len(sources), n), -1), [], []
    for g, (index, plan) in enumerate(sources):
        mine = pr[group[pe] == g]
        rows = np.unique(np.concatenate((mine, twin[mine][twin[mine] >= 0])))
        slot[g, rows] = sum(map(len, gathered)) + np.arange(rows.size)
        gathered.append(rows)
        columns.append(index.gather_window_columns(ids[rows], plan))
    # Every source's entries back to back, then an empty one (-1: no twin).
    keys, key_len, records, pages, page_len = (
        np.concatenate((*column, np.zeros(empty, int)))
        for column, empty in zip(zip(*columns), (0, 1, 1, 0, 1))
    )
    part_road = road_of[np.concatenate(gathered)]
    part_group = np.repeat(np.arange(len(sources)), list(map(len, gathered)))
    key_end, page_at = np.cumsum(key_len), np.cumsum(page_len) - page_len
    # The gathered entries of a segment and its twin.
    twins = np.stack((slot, np.where(twin >= 0, slot[:, twin], -1)), axis=-1)
    # One probe per sieved key; each fixed-side key equal to it is a hit when its
    # holder has the key's road in the run and reads the key's source.
    sieved = np.flatnonzero(sieve[(keys.view(np.uint64) * _GOLDEN) >> drop])
    lo, hi = fixed.searchsorted(keys[sieved]), fixed.searchsorted(keys[sieved], "right")
    probe, est = sieved.repeat(hi - lo), holder[_ramp(lo, hi - lo)]
    part = key_end.searchsorted(probe, "right")
    pair = pair_of[est, part_road[part]]
    hit = (pair >= 0) & (group[est] == part_group[part])
    days_hit = np.unique((pair[hit] << KEY_DATE_SHIFT) | (keys[probe[hit]] >> KEY_DATE_SHIFT))
    fresh = np.zeros((len(ests), n))  # by road: its smaller row
    fresh[pe, pr] = np.bincount(days_hit >> KEY_DATE_SHIFT, minlength=pe.size) / days[pe]
    np.logical_or.at(reach, (pq, pr), fresh[pe, pr] >= prob[pq])
    # 2. The waves: failed segments push their unvisited neighbours in Bmax - Bmin.
    unvisited, waves = maxm & ~first, []
    while wr.size:
        waves.append((wq, wr))
        ok = reach[wq, road_of[wr]]
        wq, wr = _expand(indptr, neighbors, wq[~ok], wr[~ok], unvisited, n)
        unvisited[wq, wr] = False
    # 3. Every examined row, member-major and then in (wave, queue) order.
    sizes = np.array([np.bincount(q, None, members) for q, _ in waves], int).reshape(-1, members)
    num_waves = len(waves)
    Q, R = (np.concatenate([w[i] for w in waves] or [np.empty(0, int)]) for i in (0, 1))
    order = np.argsort(Q, kind="stable")
    Q, R, W = Q[order], R[order], np.repeat(np.arange(num_waves), sizes.sum(axis=1))[order]
    road, row_ids, ok = road_of[R], ids[R].tolist(), reach[Q, road_of[R]]
    passed[Q[ok], R[ok]] = failed[Q[~ok], R[~ok]] = True
    rows_at = np.concatenate(([0], np.cumsum(sizes.sum(axis=0)))).tolist()
    claimer = np.zeros(R.size, dtype=np.int64)
    for q in np.flatnonzero(counts > 1).tolist():
        at, claims = slice(rows_at[q], rows_at[q + 1]), searches[q].max_region.seed_of
        claimer[at] = list(map(seats[q].get, map(claims.get, row_ids[at]), repeat(0)))
    # The serial order: the claimer, then the others while below prob.
    valid = rot[claimer] < counts[Q, None]
    consult = np.where(valid, lead[Q, None] + rot[claimer], 0)
    values = np.where(valid, fresh[consult, road[:, None]], -np.inf)
    asked = valid.copy()
    asked[:, 1:] &= np.maximum.accumulate(values, axis=1)[:, :-1] < prob[Q, None]
    value = np.where(asked, values, -np.inf).max(axis=1).tolist()
    flat = np.flatnonzero(asked)
    ce, at = consult.ravel()[flat], flat // width
    first = np.sort(np.unique(ce * n + road[at], return_index=True)[1])
    ce, at = ce[first], at[first]
    # Kernel or scalar per (estimator, wave): by the visits on the wave's roads
    # the estimator had not consulted before it.
    asked_in = np.full((len(ests), n), num_waves)
    asked_in[ce, road[at]] = W[at]
    flat = np.flatnonzero(valid)
    ve, vk, vr = consult.ravel()[flat], W[flat // width], road[flat // width]
    cell, vr = np.divmod(np.unique(((ve * num_waves + vk) * n + vr)[asked_in[ve, vr] >= vk]), n)
    parts_of = twins[group[cell // num_waves], vr]
    visits = np.bincount(cell, key_len[parts_of].sum(axis=1), len(ests) * num_waves)
    scalar = (visits <= SCALAR_EVAL_MAX_VISITS)[ce * num_waves + W[at]]
    event_parts = twins[group[ce], R[at]]
    event_pages = page_len[event_parts].sum(axis=1)
    weights = (None, ~scalar, scalar, records[event_parts].sum(axis=1), event_pages)
    tally = np.array([np.bincount(ce, w, len(ests)) for w in weights], dtype=np.int64)
    for e, counters in zip(ests, tally.T.tolist()):
        for name, count in zip(_COUNTERS, counters):
            setattr(e, name, getattr(e, name) + count)
    charged = pages[_ramp(page_at[event_parts].ravel(), page_len[event_parts].ravel())]
    charged_at = np.cumsum(np.bincount(Q[at], event_pages, members)).astype(np.int64)
    # The region: the passed segments and the flood from the seeds through
    # Bmax that never crosses a failed segment.
    allowed = maxm & ~failed
    fq = np.repeat(np.arange(members), counts)
    fr = csr.rows_of([seed for search in searches for seed in search.estimators])
    fq, fr = fq[allowed[fq, fr]], fr[allowed[fq, fr]]
    reached = np.zeros_like(allowed)
    while fr.size:
        reached[fq, fr] = True
        fq, fr = _expand(indptr, neighbors, fq, fr, allowed & ~reached, n)
    results, shares = [], (perf_counter() - started) * np.diff(rows_at) / max(1, R.size)
    for q, (search, charges) in enumerate(zip(searches, np.split(charged, charged_at[:-1]))):
        rows = slice(rows_at[q], rows_at[q + 1])
        results.append(TraceBackResult(
            set(ids[passed[q] | reached[q]].tolist()), set(ids[passed[q]].tolist()),
            set(ids[failed[q]].tolist()), dict(zip(row_ids[rows], value[rows])),
            sizes[: np.count_nonzero(sizes[:, q]), q].tolist(),
        ))
        search.charges.append(charges)
        search.wall_s += shares[q]
    return results


def _expand(indptr, neighbors, fq, fr, open_mask, n):
    """Each member's neighbours of ``(fq, fr)`` in ``open_mask``, once each."""
    degree = indptr[fr + 1] - indptr[fr]
    nq, nr = fq.repeat(degree), neighbors[_ramp(indptr[fr], degree)]
    key = nq * n + nr
    key = key[open_mask[nq, nr]]
    return np.divmod(key[np.sort(np.unique(key, return_index=True)[1])], n)
