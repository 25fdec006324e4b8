"""The columnar Eq. 3.1 probability kernel.

PR 2 vectorized the *network* side of every query (the CSR bounding-region
kernels); this module vectorizes the *trajectory* side — the probability
checks TBS and ES pay per candidate segment, which dominate end-to-end
query time once region expansion is fast.

The scalar path (preserved under ``tests/reference/``)
evaluates Eq. 3.1 one segment at a time: decode time lists into
``date -> [(id, second)]`` dicts, rebuild per-day id *sets* for the
window, then run a per-day ``set.isdisjoint`` loop.  The columnar kernel
replaces all of that with flat int64 arrays:

* every time-list record decodes into packed
  ``(date << 32) | trajectory_id`` visit keys plus aligned visit seconds
  (:class:`~repro.core.st_index.ColumnarTimeList`);
* a query window gather is a boolean second-mask over those columns
  (:meth:`~repro.core.st_index.STIndex.gather_window_columns`), no
  tuples, no sets, memoized per (segment, window plan);
* the fixed side of Eq. 3.1 (the start segment's departure-window visits
  for forward queries, the target's query-window visits for reverse)
  becomes one sorted unique key array — per-day trajectory sets for *all*
  days in a single vector;
* "some single trajectory appears in both windows on day d" is then one
  ``searchsorted`` membership probe: a candidate visit key hits iff the
  same (day, trajectory) pair exists on the fixed side, and the number of
  distinct days among the hits is exactly ``m*``.

Because day and trajectory id are packed into one key, the per-day
intersections of the paper's Eq. 3.1 collapse into a single sorted-array
membership test across all days at once — and a whole *wave* of candidate
segments (TBS boundary waves, ES frontier levels) batches into one probe
over the concatenated candidate columns.  An m-query wave is the same
routine with several seeds: one uncharged gather of the wave's roads, one
probe per seed, a replay of the scalar claimer-then-fallback consultation
order, and one buffer-pool charge (:meth:`ColumnarEq31Estimator.probabilities`).

Accounting guarantee: the kernel's charged reads are *identical* to the
scalar path's — same records, through the same buffer pool, in the same
order (consultation order, segment before twin, window parts in order,
slots in order, chain order).  The kernel changes how decoded bytes are
*represented*, never what is read, so result sets, ``examined`` counts
and buffer-pool/page counters match the legacy path exactly.

An adaptive scalar fast path keeps tiny evaluations (a few visits
against a small fixed side) in plain Python, where numpy dispatch
overhead would dominate; both paths produce bit-identical probabilities
and the per-path counters (``kernel_evals`` / ``scalar_evals``) are
surfaced through :class:`~repro.core.query.QueryCost`.  The path is chosen
per seed and wave, so an m-query wave's split can differ from the scalar
loop's per-consultation choice; their sum cannot.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.st_index import KEY_DATE_SHIFT, KEY_ID_MASK, STIndex

#: Below this many gathered candidate visits, a plain Python membership
#: loop beats numpy dispatch overhead; evaluations this small take the
#: scalar fast path.  Both paths are exact, so this is purely a latency
#: tuning knob (mirrors ``ESCALATE_COVER`` on the expansion side).
SCALAR_EVAL_MAX_VISITS = 24

_NO_KEYS = np.empty(0, dtype=np.int64)


def _unique_days(keys: np.ndarray) -> int:
    """Number of distinct dates among packed visit keys."""
    if keys.size == 0:
        return 0
    return int(np.unique(keys >> KEY_DATE_SHIFT).size)


class ColumnarEq31Estimator:
    """Shared core of the forward and reverse Eq. 3.1 estimators.

    One instance is bound to one query's fixed segment and windows.  The
    *fixed* side (``r0`` over the departure window for forward queries,
    the target over the full query window for reverse) is gathered once
    at construction; each candidate road then costs its share of the
    wave's gather, probe and charge (:meth:`probabilities`).

    Subclasses define the window split by overriding
    :meth:`_fixed_window` and :meth:`_candidate_window`.

    Attributes:
        checks: probability computations requested (cache hits excluded),
            matching the scalar estimator's counter exactly.
        kernel_evals / scalar_evals: evaluations served by the vectorized
            kernel vs the tiny-input Python fast path.
    """

    def __init__(
        self,
        index: STIndex,
        fixed_segment: int,
        start_time_s: float,
        duration_s: float,
        num_days: int,
    ) -> None:
        if num_days <= 0:
            raise ValueError(f"num_days must be positive, got {num_days}")
        self.index = index
        self.network = index.network
        self.start_segment = fixed_segment
        self.start_time_s = start_time_s
        self.duration_s = duration_s
        self.num_days = num_days
        self.checks = 0
        self.kernel_evals = 0
        self.scalar_evals = 0
        # Batched-I/O counters: records and pages fetched through the
        # wave-granular gather path (every charged read this estimator
        # performs goes through it, fixed side included).
        self.batched_record_reads = 0
        self.prefetched_pages = 0
        self._cache: dict[int, float] = {}
        # Twin lookups repeat for every wave membership check; the
        # network is static for the estimator's lifetime, so memoize.
        self._twins: dict[int, int | None] = {}
        # Window -> slot plans resolve once per estimator; every gather
        # replays them without touching the temporal B+-tree again.
        self._candidate_plan = index.window_plan(*self._candidate_window())
        # The fixed side, read once and reused for every candidate: one
        # sorted unique key array is the per-day trajectory sets of all
        # days at once.
        self._fixed_keys = np.unique(
            self._read_road(fixed_segment, index.window_plan(*self._fixed_window()))
        )
        self._fixed_days = _unique_days(self._fixed_keys)
        self._fixed_sets: dict[int, set[int]] | None = None

    # -- window split (subclass responsibility) ----------------------------

    def _fixed_window(self) -> tuple[float, float]:
        raise NotImplementedError

    def _candidate_window(self) -> tuple[float, float]:
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------

    def _twin(self, segment_id: int) -> int | None:
        try:
            return self._twins[segment_id]
        except KeyError:
            twin = self.network.segment(segment_id).twin_id
            if twin is None or not self.network.has_segment(twin):
                twin = None
            self._twins[segment_id] = twin
            return twin

    def _road(self, segment_id: int) -> tuple[int, ...]:
        """The road's carriageways in the scalar read order: the segment,
        then its twin."""
        twin = self._twin(segment_id)
        return (segment_id,) if twin is None else (segment_id, twin)

    def _read_road(self, segment_id: int, plan) -> np.ndarray:
        """Packed visit keys of the *road* (segment + twin) for a plan,
        gathered and charged in the scalar ``_merged_window`` order."""
        parts = self.index.gather_window_columns(self._road(segment_id), plan)
        pages = [page for _, _, page_ids in parts for page in page_ids]
        self.index.pool.get_pages(pages)
        self.batched_record_reads += sum(records for _, records, _ in parts)
        self.prefetched_pages += len(pages)
        return np.concatenate([keys for keys, _, _ in parts])

    @property
    def start_days(self) -> int:
        """Days with at least one fixed-side visit (``m*``'s upper bound)."""
        return self._fixed_days

    def _fixed_day_sets(self) -> dict[int, set[int]]:
        """The fixed side as ``day -> {trajectory ids}`` (scalar path, lazy)."""
        if self._fixed_sets is None:
            sets: dict[int, set[int]] = {}
            for key in self._fixed_keys.tolist():
                sets.setdefault(key >> KEY_DATE_SHIFT, set()).add(
                    key & KEY_ID_MASK
                )
            self._fixed_sets = sets
        return self._fixed_sets

    def _good_days_scalar(self, arrays) -> int:
        """Tiny-input fast path: Python membership over the day sets, for
        one road's key arrays."""
        fixed = self._fixed_day_sets()
        good: set[int] = set()
        for keys in arrays:
            for key in keys.tolist():
                day = key >> KEY_DATE_SHIFT
                if day in good:
                    continue
                ids = fixed.get(day)
                if ids is not None and (key & KEY_ID_MASK) in ids:
                    good.add(day)
        return len(good)

    def _membership(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask: which candidate visit keys exist on the fixed side.

        ``searchsorted`` + clipped ``take``: a key beyond the last fixed
        element clips onto the last element, which then compares unequal
        (if it were equal the insertion point would have been inside), so
        no separate bounds mask is needed — three vector ops total.
        """
        fixed = self._fixed_keys
        positions = fixed.searchsorted(keys)
        return np.take(fixed, positions, mode="clip") == keys

    # -- evaluation --------------------------------------------------------

    def probabilities(
        self,
        segment_ids,
        peers: dict[int, ColumnarEq31Estimator] | None = None,
        claims: dict[int, int] | None = None,
        prob: float = math.inf,
    ) -> list[float]:
        """Eq. 3.1 probabilities of a wave of candidates.

        Alone, this is the one-seed case: the values, cache, twin value
        sharing and ``checks`` of calling :meth:`probability` per id in
        order.  For an m-query's trace-back wave, ``peers`` maps every seed
        to its estimator (this one included; all read one index over one
        candidate window) and ``claims`` maps a segment to the seed whose
        region claimed it — an unclaimed segment, or one claimed by a seed
        outside ``peers``, goes to this estimator.  A segment's value is
        its claimer's probability, raised by the other peers in ``peers``
        order while it stays below ``prob``: the m-query region is the
        union of the per-seed regions.

        Whatever the number of seeds, a wave costs:

        1. one uncharged road gather (segment + twin,
           :meth:`~repro.core.st_index.STIndex.gather_window_columns`) of
           every distinct road some live peer has not cached;
        2. per peer, at its first evaluation, one ``searchsorted``
           membership probe over the wave's concatenated keys — or the
           scalar loop when the roads it has not cached hold at most
           :data:`SCALAR_EVAL_MAX_VISITS` visits;
        3. a replay of the scalar consultation order (each peer's cache
           first; the claimer, then the others while below ``prob``) that
           updates every consulted peer's cache, ``checks`` and I/O
           counters and lists the page ids the per-segment loop charges,
           in its order;
        4. that list charged in one
           :meth:`~repro.storage.pagestore.BufferPool.get_pages` call.
        """
        wave = list(segment_ids)
        peers = peers or {self.start_segment: self}
        claims = claims or {}
        consult = list(peers.values())
        orders = {
            first: [first, *(e for e in consult if e is not first)]
            for first in (self, *consult)
        }
        live = [e for e in dict.fromkeys((self, *consult)) if e._fixed_keys.size]
        plan = self._candidate_plan
        # 1. Every road a live peer may evaluate, gathered once, uncharged.
        road_of: dict[int, int] = {}
        heads: list[int] = []
        for segment_id in wave:
            if segment_id not in road_of and any(
                segment_id not in e._cache for e in live
            ):
                road_of.update(dict.fromkeys(self._road(segment_id), len(heads)))
                heads.append(segment_id)
        flat = [member for head in heads for member in self._road(head)]
        gathered = self.index.gather_window_columns(flat, plan) if flat else []
        parts = dict(zip(flat, gathered))
        keys = np.concatenate([k for k, _, _ in gathered] or [_NO_KEYS])
        owner = np.repeat(
            np.array([road_of[member] for member in flat], dtype=np.int64),
            [k.size for k, _, _ in gathered],
        )
        visits = np.bincount(owner, minlength=len(heads))

        def good_days(e: ColumnarEq31Estimator) -> tuple[list[int], bool]:
            """2. ``m*`` per road for one peer, and whether the scalar
            path computed it.  Called before ``e`` evaluates anything of
            this wave, so its cache is the wave-start cache."""
            mine = [r for r, head in enumerate(heads) if head not in e._cache]
            if visits[mine].sum() <= SCALAR_EVAL_MAX_VISITS:
                good = [0] * len(heads)
                for r in mine:
                    good[r] = e._good_days_scalar(
                        parts[member][0] for member in self._road(heads[r])
                    )
                return good, True
            hit = e._membership(keys)
            # Dedup (road, day) hit pairs, then count days per road: the
            # per-day intersections of Eq. 3.1 for the whole wave.
            combo = (owner[hit] << KEY_DATE_SHIFT) | (keys[hit] >> KEY_DATE_SHIFT)
            good_array = np.bincount(
                np.unique(combo) >> KEY_DATE_SHIFT, minlength=len(heads)
            )
            return good_array.tolist(), False

        # 3. The scalar consultation order, replayed.
        probes: dict[ColumnarEq31Estimator, tuple[list[int], bool]] = {}
        charges: list[int] = []
        values: list[float] = []
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
                        if e not in probes:
                            probes[e] = good_days(e)
                        good, scalar = probes[e]
                        if scalar:
                            e.scalar_evals += 1
                        else:
                            e.kernel_evals += 1
                        for member in self._road(segment_id):
                            _, records, pages = parts[member]
                            e.batched_record_reads += records
                            e.prefetched_pages += len(pages)
                            charges.extend(pages)
                        probability = good[road_of[segment_id]] / e.num_days
                    e._store(segment_id, probability)
                value = max(value, probability)
            values.append(value)
        # 4. The wave's one charge.
        if charges:
            self.index.pool.get_pages(charges)
        return values

    def probability(self, segment_id: int) -> float:
        """Eq. 3.1 for one candidate (cached, road-level)."""
        cached = self._cache.get(segment_id)
        if cached is not None:
            return cached
        return self.probabilities((segment_id,))[0]

    def reached_days(self, segment_id: int) -> list[int]:
        """``m*`` of Eq. 3.1 as the days themselves, ascending.

        The days on which some single trajectory is on the fixed side and
        on the candidate road in its window: ``len(...) / num_days`` is
        :meth:`probability`.  Uncached (the day list is for callers that
        want *which* days, e.g. an arrival-time profile).
        """
        if self._fixed_keys.size == 0:
            return []
        keys = self._read_road(segment_id, self._candidate_plan)
        hit = keys[self._membership(keys)]
        return np.unique(hit >> KEY_DATE_SHIFT).tolist()

    def _store(self, segment_id: int, value: float) -> None:
        self._cache[segment_id] = value
        twin = self._twin(segment_id)
        if twin is not None:
            self._cache[twin] = value
