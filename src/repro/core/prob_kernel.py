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
over the concatenated candidate columns.

Accounting guarantee: the kernel's charged reads are *identical* to the
scalar path's — same records, through the same buffer pool, in the same
order (candidate order, segment before twin, window parts in order, slots
in order, chain order).  The kernel changes how decoded bytes are
*represented*, never what is read, so result sets, ``examined`` counts
and buffer-pool/page counters match the legacy path exactly.

An adaptive scalar fast path keeps tiny evaluations (a few visits
against a small fixed side) in plain Python, where numpy dispatch
overhead would dominate; both paths produce bit-identical probabilities
and the per-path counters (``kernel_evals`` / ``scalar_evals``) are
surfaced through :class:`~repro.core.query.QueryCost`.
"""

from __future__ import annotations

import numpy as np

from repro.core.st_index import KEY_DATE_SHIFT, KEY_ID_MASK, STIndex

#: Below this many gathered candidate visits, a plain Python membership
#: loop beats numpy dispatch overhead; evaluations this small take the
#: scalar fast path.  Both paths are exact, so this is purely a latency
#: tuning knob (mirrors ``ESCALATE_COVER`` on the expansion side).
SCALAR_EVAL_MAX_VISITS = 24


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
    at construction; each candidate segment then costs its own window
    gather plus one membership probe.

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
            self._gather(fixed_segment, index.window_plan(*self._fixed_window()))
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

    def _gather(self, segment_id: int, plan) -> np.ndarray:
        """Packed visit keys of the *road* (segment + twin) for a plan.

        Read order matches the scalar ``_merged_window`` exactly: the
        segment's window first, then the twin's.
        """
        return self._gather_many([segment_id], plan)[0]

    def _gather_many(self, segment_ids, plan) -> list[np.ndarray]:
        """Road-level window gathers for a whole wave, in one batch.

        Every candidate's segment (and its twin, right after it — the
        scalar ``_merged_window`` order) goes into a single
        :meth:`~repro.core.st_index.STIndex.gather_window_columns` call,
        so the wave's record pages are charged in one buffer-pool pass
        before the membership kernel runs — the wave-granular prefetch.
        Accounting is identical to per-candidate scalar reads; only the
        lock traffic and decode work shrink.
        """
        roads: list[tuple[int, int | None]] = []
        flat: list[int] = []
        for segment_id in segment_ids:
            twin = self._twin(segment_id)
            roads.append((segment_id, twin))
            flat.append(segment_id)
            if twin is not None:
                flat.append(twin)
        keys_list, records, pages = self.index.gather_window_columns(
            flat, plan
        )
        self.batched_record_reads += records
        self.prefetched_pages += pages
        out: list[np.ndarray] = []
        position = 0
        for _, twin in roads:
            keys = keys_list[position]
            position += 1
            if twin is not None:
                twin_keys = keys_list[position]
                position += 1
                if keys.size == 0:
                    keys = twin_keys
                elif twin_keys.size:
                    keys = np.concatenate((keys, twin_keys))
            out.append(keys)
        return out

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

    def _good_days_scalar(self, keys: np.ndarray) -> int:
        """Tiny-input fast path: Python membership over the day sets."""
        fixed = self._fixed_day_sets()
        good: set[int] = set()
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

    def probabilities(self, segment_ids) -> list[float]:
        """Eq. 3.1 probabilities for many candidates in one kernel call.

        Semantically identical to calling the scalar ``probability`` per
        id in order — including the cache, the twin-segment value sharing
        and the ``checks`` counter — but the uncached representatives'
        membership probes run as one concatenated vector operation.
        Gathers (the only charged work) happen per representative in
        input order, so disk and pool accounting match the scalar path
        read for read.
        """
        pending: list[int] = []
        claimed: set[int] = set()
        for segment_id in segment_ids:
            if segment_id in self._cache or segment_id in claimed:
                continue
            self.checks += 1
            pending.append(segment_id)
            claimed.add(segment_id)
            twin = self._twin(segment_id)
            if twin is not None:
                claimed.add(twin)
        if pending:
            if self._fixed_keys.size == 0:
                # No trajectory ever hit the fixed side in its window:
                # nothing is reachable and no candidate read is needed
                # (the scalar path short-circuits identically).
                for segment_id in pending:
                    self._store(segment_id, 0.0)
            else:
                self._evaluate(pending)
        return [self._cache[segment_id] for segment_id in segment_ids]

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
        keys = self._gather(segment_id, self._candidate_plan)
        hit = keys[self._membership(keys)]
        return np.unique(hit >> KEY_DATE_SHIFT).tolist()

    def _store(self, segment_id: int, value: float) -> None:
        self._cache[segment_id] = value
        twin = self._twin(segment_id)
        if twin is not None:
            self._cache[twin] = value

    def _evaluate(self, pending: list[int]) -> None:
        plan = self._candidate_plan
        gathered = self._gather_many(pending, plan)
        counts = [keys.size for keys in gathered]
        total = sum(counts)
        if total <= SCALAR_EVAL_MAX_VISITS:
            self.scalar_evals += len(pending)
            for segment_id, keys in zip(pending, gathered):
                self._store(
                    segment_id, self._good_days_scalar(keys) / self.num_days
                )
            return
        self.kernel_evals += len(pending)
        if len(pending) == 1:
            # Single candidate (multi-seed fallback consultations, lone
            # boundary segments): skip the owner bookkeeping — one
            # membership probe, one day count.
            keys = gathered[0]
            hit = self._membership(keys)
            self._store(pending[0], _unique_days(keys[hit]) / self.num_days)
            return
        flat = np.concatenate([keys for keys in gathered if keys.size])
        owner = np.repeat(
            np.arange(len(pending), dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
        )
        hit = self._membership(flat)
        good = np.zeros(len(pending), dtype=np.int64)
        if hit.any():
            # Dedup (candidate, day) hit pairs, then count days per
            # candidate: the per-day sorted intersections of Eq. 3.1 for
            # the whole wave, in two vector ops.
            combo = (owner[hit] << KEY_DATE_SHIFT) | (
                flat[hit] >> KEY_DATE_SHIFT
            )
            unique_owner = np.unique(combo) >> KEY_DATE_SHIFT
            good = np.bincount(unique_owner, minlength=len(pending))
        for position, segment_id in enumerate(pending):
            self._store(segment_id, int(good[position]) / self.num_days)
