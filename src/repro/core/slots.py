"""The Δt day clock: the one home of slot arithmetic.

The day is cut into slots of Δt whole seconds; slot ``k`` covers
``[k·Δt, (k+1)·Δt)`` and the last slot may be shorter.  The paper (§3.2.1)
builds a B-tree over these intervals for temporal range selection, but
every slot starts at exactly ``k·Δt``: a lookup is ``⌊t/Δt⌋`` and a range
is one division per end.  The ST-Index, the Con-Index, the planner and the
bounding-region search all read their slots, hops and windows from here.
"""

from __future__ import annotations

import numbers

from repro.trajectory.model import SECONDS_PER_DAY


def check_delta_t(
    delta_t_s: object, name: str = "index granularity", error: type[ValueError] = ValueError
) -> int:
    """``delta_t_s`` as an ``int`` slot width of 1..86400 seconds, or ``error``.

    The one Δt check: integers of any kind pass (numpy's included), bools
    and everything else do not.  ``name`` opens the error message.
    """
    if (
        isinstance(delta_t_s, bool)
        or not isinstance(delta_t_s, numbers.Integral)
        or not 0 < delta_t_s <= SECONDS_PER_DAY
    ):
        raise error(
            f"{name} is {delta_t_s!r}, expected an integer slot width of "
            f"1..{SECONDS_PER_DAY} seconds"
        )
    return int(delta_t_s)


def slots_per_day(delta_t_s: int) -> int:
    """Number of Δt slots in a day (the last one may be shorter)."""
    return -(-SECONDS_PER_DAY // delta_t_s)


def slot_of(time_s: float, delta_t_s: int) -> int:
    """The slot containing ``time_s``, clamped into the day."""
    return int(min(max(0.0, time_s), SECONDS_PER_DAY - 1) // delta_t_s)


def hops(duration_s: float, delta_t_s: int) -> int:
    """Δt hops a bounding-region search takes for a duration: at least one."""
    return max(1, int(duration_s // delta_t_s))


def window_plan(
    start_s: float, end_s: float, delta_t_s: int
) -> tuple[tuple[float, float, int, int], ...]:
    """``[start_s, end_s)`` as within-day parts ``(lo, hi, first, last)``.

    Time of day is cyclic: a window that runs past midnight continues in
    the early slots of the day, and one spanning a day or more covers every
    slot once.  A part's slots ``first..last`` are those it overlaps, every
    ``s`` with ``s·Δt < hi`` and ``(s+1)·Δt > lo``; float floor division
    is exact, so no rounding moves a part's edge across a slot start.
    """
    span = end_s - start_s
    if span <= 0:
        return ()
    lo = start_s % SECONDS_PER_DAY if span < SECONDS_PER_DAY else 0.0
    hi = lo + min(span, SECONDS_PER_DAY)
    parts = [(lo, min(hi, float(SECONDS_PER_DAY)))]
    if hi > SECONDS_PER_DAY:
        parts.append((0.0, hi - SECONDS_PER_DAY))
    return tuple(
        (lo, hi, int(lo // delta_t_s), -int(-hi // delta_t_s) - 1) for lo, hi in parts
    )
