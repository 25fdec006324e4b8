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

Candidates cost one uncharged gather of their roads, one probe per live
seed and one buffer-pool charge
(:meth:`ColumnarEq31Estimator.probabilities`) per call, and a call is an
ES frontier level or a whole trace-back (the ring Bmax ∪ Bmin, each road
read and charged once however many seeds value it).  The fixed sides of
all seeds are one gather and one charge
(:meth:`~ColumnarEq31Estimator.for_seeds`).

Accounting guarantee: the charged reads are *identical* to the scalar
path's (``tests/reference/``) — same records, same buffer pool, same
order (first-met road order, segment before twin, window parts, slots,
chain order) — so result sets, ``examined`` counts and pool/page
counters match it exactly, and the pages charged are the pages read.  A
lock-step run (:mod:`repro.core.tbs`) gathers and probes all its
members' rings at once; each member's page ids, fixed sides first, go to
its ``charges`` sink for the batch driver to replay through the pool in
order.

Every evaluation runs the probe.  Tiny ones (at most
:data:`SCALAR_EVAL_MAX_VISITS` uncached visits per call) are still
counted apart, as ``scalar_evals`` beside ``kernel_evals``
(:class:`~repro.core.query.QueryCost`), per seed and call — the split the
lock step counts too — so the split can differ from the scalar loop's
per-evaluation choice; their sum cannot.
"""

from __future__ import annotations

import numpy as np

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
        # road gather (every charged read this estimator performs goes
        # through it, fixed side included).
        self.batched_record_reads = self.prefetched_pages = 0
        self._cache: dict[int, float] = {}
        # Road lookups repeat for every candidate of a call; the
        # network is static for the estimator's lifetime, so memoize.
        self._roads: dict[int, tuple[int, ...]] = {}
        # Window -> slot plans resolve once per estimator; every gather
        # replays them instead of redoing the slot arithmetic.
        self._candidate_plan = index.window_plan(*self._candidate_window(start_time_s, duration_s))
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
        candidate plan: each carriageway's road number (numbered as first met), the
        gather's columns (a road's segment, then its twin) and each key's road."""
        road_of: dict[int, int] = {}
        flat: list[int] = []
        roads = 0
        for segment_id in segment_ids:
            if segment_id not in road_of:
                road = self._road(segment_id)
                road_of.update(dict.fromkeys(road, roads))
                flat += road
                roads += 1
        columns = self.index.gather_window_columns(flat, self._candidate_plan)
        owner = np.repeat(np.array([road_of[m] for m in flat], dtype=np.int64), columns[1])
        return road_of, columns, owner, np.bincount(owner, minlength=roads)

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

    def probabilities(
        self, segment_ids, peers: dict[int, ColumnarEq31Estimator] | None = None
    ) -> list[float]:
        """Eq. 3.1 of each candidate: the largest value one of ``peers`` gives it.

        Alone, this is the one-seed case: the values, cache, twin value
        sharing and ``checks`` of calling :meth:`probability` per id in
        order.  ``peers`` maps an m-query's seeds to their estimators (this
        one included; all read one index over one candidate window): the
        m-query region is the union of the per-seed regions.  A peer with an
        empty fixed side gives 0, unread.  Whatever the peers, a call costs:

        1. one uncharged road gather (segment + twin,
           :meth:`~repro.core.st_index.STIndex.gather_window_columns`) of
           every distinct road some live peer has not cached, in first-met
           order;
        2. per live peer, one ``searchsorted`` membership probe over the
           gathered keys: ``m*`` is the number of days with a hit;
        3. one :meth:`~repro.storage.pagestore.BufferPool.get_pages` charge
           of the gather's page ids, in its order: each road once, however
           many peers evaluate it.

        Each peer counts a check per road it had not cached — as scalar
        evaluations when those roads hold at most
        :data:`SCALAR_EVAL_MAX_VISITS` visits, else as kernel ones — and
        this estimator counts the records and pages read.
        """
        ids = list(segment_ids)
        peers = list(peers.values()) if peers else [self]
        live = [e for e in peers if e._fixed_keys.size]
        road_of, columns, owner, visits = self._gather(
            [s for s in ids if any(s not in e._cache for e in live)]
        )
        keys = columns[0]
        for e in peers:
            fresh = [s for s in ids if s not in e._cache]
            if e not in live:
                for segment_id in fresh:
                    if segment_id not in e._cache:  # not the twin of one before
                        e.checks += 1
                        e._cache.update(dict.fromkeys(self._road(segment_id), 0.0))
                continue
            new = set(map(road_of.__getitem__, fresh))
            if not new:
                continue
            e.checks += len(new)
            if sum(visits[road] for road in new) <= SCALAR_EVAL_MAX_VISITS:
                e.scalar_evals += len(new)
            else:
                e.kernel_evals += len(new)
            hit = e._membership(keys)
            combo = np.unique((owner[hit] << KEY_DATE_SHIFT) | (keys[hit] >> KEY_DATE_SHIFT))
            value = np.bincount(combo >> KEY_DATE_SHIFT, minlength=visits.size) / e.num_days
            value = value.tolist()
            e._cache.update((s, value[road]) for s, road in road_of.items() if road in new)
        if road_of:
            self._count(columns)
            self.index.pool.get_pages(columns[3])
        return [max(e._cache[s] for e in peers) for s in ids]

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
