"""The columnar Eq. 3.1 probability kernel.

This module vectorizes the *trajectory* side of a query — the probability
checks TBS and ES pay per candidate segment.  The scalar path (preserved
under ``tests/reference/``) decodes time lists into ``date -> [(id,
second)]`` dicts, rebuilds per-day id *sets* for the window and runs a
per-day ``set.isdisjoint`` loop.  Here everything is flat int64 arrays:

* time-list records decode into packed ``(date << 32) | trajectory_id``
  visit keys plus aligned seconds
  (:class:`~repro.core.st_index.ColumnarTimeList`), and a window gather
  (:meth:`~repro.core.st_index.STIndex.gather_window_columns`) is a
  seconds mask over them that answers columns — keys, records and page
  ids per segment, back to back — memoized per window plan;
* the fixed side of Eq. 3.1 (the start road's departure-window visits
  forward, the target's query-window visits reverse) is one sorted unique
  key array — the per-day trajectory sets of *all* days at once;
* "some single trajectory appears in both windows on day d" is one
  ``searchsorted`` membership probe, and the number of distinct days
  among the hits is exactly ``m*``.

Candidates cost one uncharged gather of their roads, one probe per seed,
a replay of the scalar claimer-then-fallback consultation order and one
buffer-pool charge (:meth:`ColumnarEq31Estimator.probabilities`) — per
call, and a call is an ES frontier level or a whole trace-back: the search
gathers its ring (Bmax and Bmin) and probes each seed
once (:meth:`~ColumnarEq31Estimator.prefetch`,
:meth:`~ColumnarEq31Estimator.vouched`), runs its waves on pass/fail, then
replays them all in one call.  The fixed sides of all seeds are one gather
and one charge (:meth:`~ColumnarEq31Estimator.for_seeds`).

Accounting guarantee: the charged reads are *identical* to the scalar
path's — same records, same buffer pool, same order (consultation order,
segment before twin, window parts, slots, chain order) — so result sets,
``examined`` counts and pool/page counters match it exactly.  A lock-step
run (:mod:`repro.core.tbs`) gathers and probes all its members' rings at
once; each member's page ids, fixed sides first, go to its ``charges``
sink for the batch driver to replay through the pool in order.

Every evaluation runs the probe.  Tiny ones (at most
:data:`SCALAR_EVAL_MAX_VISITS` uncached visits) are still counted apart,
as ``scalar_evals`` beside ``kernel_evals`` (:class:`~repro.core.query.QueryCost`),
per seed and wave — the split the lock step counts too — so an m-query
wave's split can differ from the scalar loop's per-consultation choice;
their sum cannot.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.directory import _ramp
from repro.core.st_index import KEY_DATE_SHIFT, STIndex

#: Evaluations over at most this many uncached candidate visits count as
#: ``scalar_evals``, the rest as ``kernel_evals``; both run the probe (a
#: Python membership loop for them measured no faster).
SCALAR_EVAL_MAX_VISITS = 24


class ColumnarEq31Estimator:
    """Shared core of the forward and reverse Eq. 3.1 estimators.

    One instance is bound to one query's fixed segment and windows.  The
    *fixed* side (``r0`` over the departure window for forward queries,
    the target over the full query window for reverse) is gathered once
    at construction; each candidate road then costs its share of a
    search's gather, probe and charge (:meth:`probabilities`).

    Subclasses define the window split by overriding the static
    :meth:`_fixed_window` and :meth:`_candidate_window` of ``(T, L)``.

    Attributes:
        checks: probability computations requested (cache hits excluded),
            matching the scalar estimator's counter exactly.
        kernel_evals / scalar_evals: evaluations above vs at most
            :data:`SCALAR_EVAL_MAX_VISITS` uncached visits.
    """

    def __init__(
        self, index: STIndex, fixed_segment: int, start_time_s: float, duration_s: float,
        num_days: int, charges: list | None = None, *, fixed_parts: tuple | None = None,
    ) -> None:
        if num_days <= 0:
            raise ValueError(f"num_days must be positive, got {num_days}")
        self.index = index
        self.network = index.network
        self.start_segment = fixed_segment
        self.start_time_s = start_time_s
        self.duration_s = duration_s
        self.num_days = num_days
        self.checks = self.kernel_evals = self.scalar_evals = 0
        # Batched-I/O counters: records and pages fetched through the
        # wave-granular gather path (every charged read this estimator
        # performs goes through it, fixed side included).
        self.batched_record_reads = self.prefetched_pages = 0
        self._cache: dict[int, float] = {}
        # Road lookups repeat for every wave membership check; the
        # network is static for the estimator's lifetime, so memoize.
        self._roads: dict[int, tuple[int, ...]] = {}
        # Window -> slot plans resolve once per estimator; every gather
        # replays them instead of redoing the slot arithmetic.
        self._candidate_plan = index.window_plan(*self._candidate_window(start_time_s, duration_s))
        # A trace-back's candidate ring, gathered once (:meth:`prefetch`).
        self._ring: tuple | None = None
        # The fixed side, read once and reused for every candidate: one
        # sorted unique key array is the per-day trajectory sets of all
        # days at once.  A lock-step member's read is recorded into
        # ``charges`` for its replay through the pool, not charged;
        # ``fixed_parts`` is a read :meth:`for_seeds` already made.
        if fixed_parts is None:
            plan = index.window_plan(*self._fixed_window(start_time_s, duration_s))
            fixed_parts = _charged_gather(index, self._road(fixed_segment), plan, charges)
        self._fixed_keys = np.unique(self._count(fixed_parts))
        self._fixed_days = np.unique(self._fixed_keys >> KEY_DATE_SHIFT).size

    @classmethod
    def for_seeds(
        cls, index: STIndex, seeds, start_time_s: float, duration_s: float, num_days: int,
        charges: list | None = None,
    ) -> list[ColumnarEq31Estimator]:
        """One estimator per seed, in order, as the constructor builds them,
        their fixed sides read with one gather and one charge in seed order."""
        plan = index.window_plan(*cls._fixed_window(start_time_s, duration_s))
        roads = [_carriageways(index.network, seed) for seed in seeds]
        keys, key_len, records, pages, page_len = _charged_gather(
            index, [s for road in roads for s in road], plan, charges
        )
        cuts = np.cumsum([0, *map(len, roads)]).tolist()
        key_at, page_at = (np.cumsum([0, *lengths]).tolist() for lengths in (key_len, page_len))
        return [
            cls(index, seed, start_time_s, duration_s, num_days, fixed_parts=(
                keys[key_at[a]:key_at[b]], key_len[a:b], records[a:b],
                pages[page_at[a]:page_at[b]], page_len[a:b],
            ))
            for seed, a, b in zip(seeds, cuts, cuts[1:])
        ]

    # -- window split (subclass responsibility) ----------------------------

    @staticmethod
    def _fixed_window(start_time_s: float, duration_s: float) -> tuple[float, float]:
        raise NotImplementedError

    @staticmethod
    def _candidate_window(start_time_s: float, duration_s: float) -> tuple[float, float]:
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------

    def _road(self, segment_id: int) -> tuple[int, ...]:
        road = self._roads.get(segment_id)
        if road is None:
            road = self._roads[segment_id] = _carriageways(self.network, segment_id)
        return road

    def _count(self, columns) -> np.ndarray:
        """A charged read's keys, its records and pages counted."""
        keys, _, records, pages, _ = columns
        self.batched_record_reads += int(records.sum())
        self.prefetched_pages += pages.size
        return keys

    def _gather(self, segment_ids) -> tuple:
        """The roads of ``segment_ids``, each once, in one uncharged gather over the
        candidate plan: each segment's road number and its road's entries in its read
        order (itself, then its twin), the :class:`_Entries`, the keys back to back,
        each key's road, the visits per road and a place for each peer's probe."""
        road_of: dict[int, int] = {}
        parts: dict[int, tuple[int, ...]] = {}
        flat: list[int] = []
        roads = 0
        for segment_id in segment_ids:
            if segment_id not in road_of:
                road, at = self._road(segment_id), (len(flat), len(flat) + 1)
                road_of.update(dict.fromkeys(road, roads))
                parts.update(zip(road, (at[: len(road)], at[::-1])))
                flat += road
                roads += 1
        entries = _Entries(self.index.gather_window_columns(flat, self._candidate_plan))
        owner = np.repeat(np.array([road_of[m] for m in flat], dtype=np.int64), entries.key_len)
        return road_of, parts, entries, entries.keys, owner, np.bincount(owner, minlength=roads), {}

    @property
    def start_days(self) -> int:
        """Days with at least one fixed-side visit (``m*``'s upper bound)."""
        return self._fixed_days

    def _membership(self, keys: np.ndarray) -> np.ndarray:
        """Which candidate visit keys the fixed side holds: ``searchsorted`` and
        a clipped ``take`` (a key past the last clips onto it and compares unequal)."""
        fixed = self._fixed_keys
        positions = fixed.searchsorted(keys)
        return np.take(fixed, positions, mode="clip") == keys

    # -- evaluation --------------------------------------------------------

    def prefetch(self, segment_ids) -> None:
        """Gather the roads of ``segment_ids`` once, uncharged, as the ring a
        trace-back's waves lie in: :meth:`vouched` and every later
        :meth:`probabilities` call take their segments from it."""
        self._ring = self._gather(segment_ids)

    def vouched(self, peers: dict[int, ColumnarEq31Estimator], prob: float) -> set[int]:
        """The ring's segments some peer's probability brings to ``prob`` — exactly
        those whose replayed consultation (:meth:`probabilities`) ends at or above
        it, so a trace-back can run its waves before any bookkeeping.  Each live
        peer probes the ring once per search; an empty fixed side, unread, is 0."""
        ring = self._ring
        live = [e for e in peers.values() if e._fixed_keys.size]
        ok = np.full(ring[5].size, len(live) < len(peers) and 0.0 >= prob)
        for e in live:
            ok |= e._probed(ring) >= prob
        ok = ok.tolist()
        return {segment_id for segment_id, road in ring[0].items() if ok[road]}

    def _probed(self, ring: tuple) -> np.ndarray:
        """Eq. 3.1 per road of ``ring`` for this estimator, probed once: the days
        with a (road, day) hit pair, over ``num_days``."""
        _, _, _, keys, owner, visits, probed = ring
        if self not in probed:
            hit = self._membership(keys)
            combo = np.unique((owner[hit] << KEY_DATE_SHIFT) | (keys[hit] >> KEY_DATE_SHIFT))
            days = np.bincount(combo >> KEY_DATE_SHIFT, minlength=visits.size)
            probed[self] = days / self.num_days
        return probed[self]

    def probabilities(
        self,
        segment_ids,
        peers: dict[int, ColumnarEq31Estimator] | None = None,
        claims: dict[int, int] | None = None,
        prob: float = math.inf,
        wave_sizes: list[int] | None = None,
    ) -> list[float]:
        """Eq. 3.1 probabilities of candidates, cut into consecutive waves by
        ``wave_sizes`` (one wave when omitted).

        Alone, this is the one-seed case: the values, cache, twin value
        sharing and ``checks`` of calling :meth:`probability` per id in
        order.  For an m-query's trace-back, ``peers`` maps every seed to
        its estimator (this one included; all read one index over one
        candidate window) and ``claims`` maps a segment to the seed whose
        region claimed it — an unclaimed segment, or one claimed by a seed
        outside ``peers``, goes to this estimator.  A segment's value is
        its claimer's probability, raised by the other peers in ``peers``
        order while it stays below ``prob``: the m-query region is the
        union of the per-seed regions.  A trace-back passes all its waves,
        in (wave, queue) order.  Whatever the seeds and waves, a call costs:

        1. one uncharged road gather (segment + twin,
           :meth:`~repro.core.st_index.STIndex.gather_window_columns`) of
           every distinct road some live peer has not cached — none after
           :meth:`prefetch`, whose ring holds them;
        2. per live peer one ``searchsorted`` membership probe over the
           gathered keys (the ring's: once per search);
        3. one replay of the scalar consultation order (each peer's cache
           first; the claimer, then the others while below ``prob``) that
           updates every consulted peer's cache and counters and lists the
           entries the per-segment loop charges, in its order.  An
           evaluation counts scalar when the roads of its wave the peer had
           not cached at the wave's start hold at most
           :data:`SCALAR_EVAL_MAX_VISITS` visits, else kernel;
        4. their page ids charged in one
           :meth:`~repro.storage.pagestore.BufferPool.get_pages` call.
        """
        ids = list(segment_ids)
        peers = peers or {self.start_segment: self}
        claims = claims or {}
        consult = list(peers.values())
        orders = {e: [e, *(peer for peer in consult if peer is not e)] for e in (self, *consult)}
        ring = self._ring
        if ring is None:
            live = [e for e in dict.fromkeys((self, *consult)) if e._fixed_keys.size]
            ring = self._gather([s for s in ids if any(s not in e._cache for e in live)])
        road_of, parts, entries, _, _, visits, _ = ring
        records, num_pages, visits = entries.records, entries.num_pages, visits.tolist()
        probed: dict[ColumnarEq31Estimator, list[float]] = {}
        charges: list[int] = []
        values: list[float] = []
        end = 0
        for size in wave_sizes or (len(ids),):
            wave, end, scalar_in = ids[end : end + size], end + size, {}
            for segment_id in wave:
                value = -1.0  # below any threshold: the claimer is always asked
                for e in orders[peers.get(claims.get(segment_id), self)]:
                    if value >= prob:
                        break
                    probability = e._cache.get(segment_id)
                    if probability is None:
                        e.checks += 1
                        # An empty fixed side vouches for nothing, unread.
                        probability = 0.0
                        if e._fixed_keys.size:
                            scalar = scalar_in.get(e)
                            if scalar is None:  # e's cache is still the wave-start one
                                uncached = {road_of[s] for s in wave if s not in e._cache}
                                scalar = sum(visits[r] for r in uncached) <= SCALAR_EVAL_MAX_VISITS
                                scalar_in[e] = scalar
                                if e not in probed:
                                    probed[e] = e._probed(ring).tolist()
                            if scalar:
                                e.scalar_evals += 1
                            else:
                                e.kernel_evals += 1
                            for i in parts[segment_id]:
                                e.batched_record_reads += records[i]
                                e.prefetched_pages += num_pages[i]
                            charges += parts[segment_id]
                            probability = probed[e][road_of[segment_id]]
                        e._cache.update(dict.fromkeys(self._road(segment_id), probability))
                    value = max(value, probability)
                values.append(value)
        if charges:
            self.index.pool.get_pages(entries.pages_of(charges))
        return values

    def probability(self, segment_id: int) -> float:
        """Eq. 3.1 for one candidate (cached, road-level)."""
        cached = self._cache.get(segment_id)
        return cached if cached is not None else self.probabilities((segment_id,))[0]

    def reached_days(self, segment_id: int) -> list[int]:
        """``m*`` of Eq. 3.1 as the days themselves, ascending.

        The days on which some single trajectory is on the fixed side and
        on the candidate road in its window: ``len(...) / num_days`` is
        :meth:`probability`.  Uncached (the day list is for callers that
        want *which* days, e.g. an arrival-time profile).
        """
        if self._fixed_keys.size == 0:
            return []
        keys = self._count(
            _charged_gather(self.index, self._road(segment_id), self._candidate_plan)
        )
        hit = keys[self._membership(keys)]
        return np.unique(hit >> KEY_DATE_SHIFT).tolist()


def _carriageways(network, segment_id: int) -> tuple[int, ...]:
    """A road's carriageways in the scalar read order: the segment, then its twin."""
    twin = network.segment(segment_id).twin_id
    if twin is None or not network.has_segment(twin):
        return (segment_id,)
    return (segment_id, twin)


def _charged_gather(index: STIndex, segment_ids, plan, charges: list | None = None) -> tuple:
    """The window gather of ``segment_ids``, their page ids charged in one call
    (or recorded into ``charges`` for a lock-step replay) in the scalar order."""
    columns = index.gather_window_columns(segment_ids, plan)
    if charges is None:
        index.pool.get_pages(columns[3])
    else:
        charges.append(columns[3])
    return columns


class _Entries:
    """A gather's columns with per-entry lists, and the page ids of many entries."""

    def __init__(self, columns: tuple) -> None:
        self.keys, self.key_len, records, self.pages, self.page_len = columns
        self.page_at = np.cumsum(self.page_len) - self.page_len
        self.records, self.num_pages = records.tolist(), self.page_len.tolist()

    def pages_of(self, entries: list[int]) -> np.ndarray:
        """The page ids of ``entries``, back to back in their order."""
        rows = np.array(entries, dtype=np.int64)
        return self.pages[_ramp(self.page_at[rows], self.page_len[rows])]
