"""Algorithm 2: Trace Back Search (TBS), as one probe of the ring.

TBS refines the maximum bounding region into the Prob-reachable region.
The paper walks waves outward from Bmax's boundary and Bmin, accepts a
segment whose Eq. 3.1 probability meets ``Prob`` and fills in the
interior it never examined, on the assumption that a road closer in is
more reachable.  Here the search values every segment of the ring
Bmax ∪ Bmin once instead: one uncharged gather of the ring's roads, one
membership probe per live seed, one charge of the ring's pages in gather
order (:meth:`~repro.core.prob_kernel.ColumnarEq31Estimator.probabilities`).
The answer is every ring segment whose best seed's value is at least
``Prob`` — Eq. 3.1 itself, with no interior filled in on trust.  Seeds
capped below ``Prob`` never get here
(:func:`~repro.core.executors.sqmb_tbs.bounded_front`).  The waves saved
at most ~10 % of a search's pages on the benchmark city, because they
examined nearly the whole ring anyway; see ``docs/architecture.md``.

A serial batch's run of ``LOCKSTEP_MIN_RUN`` or more consecutive bounded
members (:func:`~repro.core.executors.sqmb_tbs.execute_lockstep`) runs in
*lock step*: its rings gathered as columns, one column gather per
(ST-Index, candidate plan), and probed once per sieved key.  It charges
nothing: each member records its page ids for the driver to replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        region: the Prob-reachable ring segments.
        failed: ring segments that fell short.
        probabilities: every ring segment's probability.
        wave_sizes: members per evaluation wave: the ring's size, once (the
            scalar reference records waves of one).
    """

    region: set[int] = field(default_factory=set)
    failed: set[int] = field(default_factory=set)
    probabilities: dict[int, float] = field(default_factory=dict)
    wave_sizes: list[int] = field(default_factory=list)

    @property
    def examined(self) -> int:
        return len(self.region) + len(self.failed)

    @classmethod
    def of_ring(cls, ring, values, prob: float) -> TraceBackResult:
        """The ring segments split at ``prob``, one wave of them all."""
        result = cls(probabilities=dict(zip(ring, values)), wave_sizes=[len(ring)])
        for segment_id, value in result.probabilities.items():
            (result.region if value >= prob else result.failed).add(segment_id)
        return result


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # multiplicative hash of the key sieve
_COUNTERS = ("checks", "kernel_evals", "scalar_evals", "batched_record_reads", "prefetched_pages")


@dataclass
class LockstepSearch:
    """A lock-step member: Algorithm 2's inputs (every estimator live), the page ids it
    would charge serially (fixed sides, then its ring) and its share of the run's time."""

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
        network: road network (its CSR rows index a lock-step run).
        estimators: per-seed probability estimators; for an s-query this is
            ``{r0: estimator}``, for an m-query one per start segment, and a
            segment's value is the largest any of them gives it (the m-query
            region is the union of the per-seed regions).  An empty dict
            yields an empty result: with nothing to vouch for any segment,
            nothing is Prob-reachable.
        prob: the query's probability threshold.
        max_region: output of SQMB/MQMB with kind="far".
        min_region: output of SQMB/MQMB with kind="near".

    Returns:
        The Prob-reachable region and bookkeeping sets.
    """
    if isinstance(estimators, list):
        return _lockstep(network, estimators)
    if not estimators:
        return TraceBackResult()
    ring = sorted(max_region.cover | min_region.cover)
    values = next(iter(estimators.values())).probabilities(ring, estimators)
    return TraceBackResult.of_ring(ring, values, prob)


def _lockstep(network: RoadNetwork, searches: list[LockstepSearch]) -> list[TraceBackResult]:
    """Rows ``(member, segment)`` of every member's ring.  One column gather per
    (ST-Index, candidate plan); each sieved key is looked up once in the fixed sides'
    sorted union, and an equal key counts toward ``m*`` of its estimator's pair if that
    estimator has the key's road in the run and reads its source.  A row's value is the
    best of its member's estimators; checks, the kernel/scalar split, the records and
    pages read and the charge order are the serial search's."""
    started = perf_counter()
    csr = network.csr()
    n, twin, ids = csr.n, csr.twin_row, csr.ids
    road_of = np.where(twin >= 0, np.minimum(np.arange(n), twin), np.arange(n))
    ests = [e for search in searches for e in search.estimators.values()]
    counts = np.array([len(search.estimators) for search in searches])
    lead, members = np.cumsum(counts) - counts, len(searches)
    days = np.array([e.num_days for e in ests])
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
    # Each member's ring (Bmax and Bmin), in segment-id order as the serial search
    # sorts it, and its (estimator, road) pairs.
    rings = [sorted(s.max_region.cover | s.min_region.cover) for s in searches]
    rq = np.repeat(np.arange(members), list(map(len, rings)))
    rr = csr.rows_of(np.concatenate(rings))
    distinct, first = np.unique(rq * n + road_of[rr], return_index=True)
    uq, ur = np.divmod(distinct, n)
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
    # One probe per sieved key; each fixed-side key equal to it is a hit when its
    # holder has the key's road in the run and reads the key's source.
    sieved = np.flatnonzero(sieve[(keys.view(np.uint64) * _GOLDEN) >> drop])
    lo, hi = fixed.searchsorted(keys[sieved]), fixed.searchsorted(keys[sieved], "right")
    probe, est = sieved.repeat(hi - lo), holder[_ramp(lo, hi - lo)]
    part = key_end.searchsorted(probe, "right")
    pair = pair_of[est, part_road[part]]
    hit = (pair >= 0) & (group[est] == part_group[part])
    days_hit = np.unique((pair[hit] << KEY_DATE_SHIFT) | (keys[probe[hit]] >> KEY_DATE_SHIFT))
    best = np.zeros((members, n))  # by road: its smaller row
    fresh = np.bincount(days_hit >> KEY_DATE_SHIFT, minlength=pe.size) / days[pe]
    np.maximum.at(best, (pq, pr), fresh)
    # Each road as the serial gather meets it: its first ring segment, then the twin.
    first = np.sort(first)
    fq, fr = rq[first], rr[first]
    parts = np.stack((slot, np.where(twin >= 0, slot[:, twin], -1)), axis=-1)[group[lead[fq]], fr]
    roads = np.bincount(fq, None, members)
    read_pages = np.bincount(fq, page_len[parts].sum(axis=1), members)
    scalar = np.bincount(fq, key_len[parts].sum(axis=1), members) <= SCALAR_EVAL_MAX_VISITS
    # Every estimator checks each road of its member's ring once; the lead counts the reads.
    tally = np.zeros((len(ests), len(_COUNTERS)), dtype=np.int64)
    tally[:, :3] = np.stack((roads, roads * ~scalar, roads * scalar), axis=1).repeat(counts, 0)
    tally[lead, 3] = np.bincount(fq, records[parts].sum(axis=1), members)
    tally[lead, 4] = read_pages
    for e, counters in zip(ests, tally.tolist()):
        for name, count in zip(_COUNTERS, counters):
            setattr(e, name, getattr(e, name) + count)
    charged = pages[_ramp(page_at[parts].ravel(), page_len[parts].ravel())]
    charged_at = np.cumsum(read_pages).astype(np.int64)
    at = np.cumsum([0, *map(len, rings)]).tolist()
    value = best[rq, road_of[rr]].tolist()
    results, shares = [], (perf_counter() - started) * np.diff(at) / max(1, rr.size)
    for q, (search, charges) in enumerate(zip(searches, np.split(charged, charged_at[:-1]))):
        results.append(TraceBackResult.of_ring(rings[q], value[at[q] : at[q + 1]], search.prob))
        search.charges.append(charges)
        search.wall_s += shares[q]
    return results
