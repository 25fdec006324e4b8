"""Reachability probabilities (Eq. 3.1).

``probability(r, r0) = m*/m`` where ``m*`` counts the days on which some
single trajectory both passed the start segment ``r0`` during the
departure window ``[T, T+min(W, L)]`` (``W`` fixed at the paper's
canonical 5-minute slot, independent of the index Δt) and passed ``r``
during the query window ``[T, T+L]``.  The estimator gathers the start
segment's visits once, as one sorted packed-key array; each additional
segment then costs only its own time-list reads plus one vectorized
membership probe — the unit of work both ES and TBS pay per probability
check.  Batches of candidates (a trace-back's ring, an ES frontier level)
go through :meth:`ProbabilityEstimator.probabilities` into a single
kernel call; see :mod:`repro.core.prob_kernel` for the columnar layout
and ``tests/reference/`` for the preserved scalar path.

Direction handling: a two-way road is stored as a pair of directed twin
segments, but a *road* is reachable regardless of which carriageway the
historical taxi used, so the estimator merges a segment's time lists with
its twin's (and caches the result under both ids).  Query results are
therefore road-level, matching the map renderings of Figs 4.2/4.4/4.6.
"""

from __future__ import annotations

from repro.core.prob_kernel import ColumnarEq31Estimator

#: Departure-window width ``W`` in seconds.  Eq. 3.1 counts trajectories
#: that left ``r0`` "during the first time slot"; tying that window to the
#: index granularity makes *results* depend on Δt (a 1-minute index
#: starves the start set, a 20-minute one inflates it), contradicting the
#: Δt-insensitivity of Figs 4.1(b)/4.7.  Since time lists store per-visit
#: seconds, the departure window can be fixed at the paper's canonical
#: 5-minute slot regardless of the index Δt — Δt then only affects query
#: *cost* (slot reads, bound tightness), exactly as the figures present.
DEPARTURE_WINDOW_S = 300.0


class ProbabilityEstimator(ColumnarEq31Estimator):
    """Eq. 3.1 evaluator bound to one query's ``(r0, T, L)``.

    The fixed side is ``Tr(r0, [T, T+min(W, L)], d)``: trajectories
    departing the start road in the departure window, per day, read once
    and reused for every candidate.  The window is truncated to the query
    window — a departure after T+L cannot contribute to reachability
    within [T, T+L] — and is independent of the index Δt, so results stay
    insensitive to the index granularity.

    Args:
        index: the ST-Index to read time lists from.
        start_segment: ``r0``.
        start_time_s: ``T``.
        duration_s: ``L``.
        num_days: ``m``, the dataset's day span.
    """

    @staticmethod
    def _fixed_window(start_time_s: float, duration_s: float) -> tuple[float, float]:
        return (start_time_s, start_time_s + min(DEPARTURE_WINDOW_S, duration_s))

    @staticmethod
    def _candidate_window(start_time_s: float, duration_s: float) -> tuple[float, float]:
        return (start_time_s, start_time_s + duration_s)
