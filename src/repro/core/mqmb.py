"""Algorithm 3: m-query maximum bounding-region search (MQMB).

The naive way to answer an m-query is to run SQMB+TBS once per location and
union the results — paying for the overlapping interiors repeatedly.  MQMB
instead grows all seeds *together* over the shared accumulated bounding set
``B``: each covered segment is expanded exactly once per step, however
many per-seed regions overlap it — the point of §3.3.2's elimination
rule.  The result is the merged maximum bounding region (Fig. 3.6b), at
roughly the cost of the largest single bounding region instead of the sum
of all of them.  The trace-back values a
segment by its best seed, so no segment records which seed claimed it.

The search itself is :func:`repro.core.sqmb.bounding_region` — the paper
presents MQMB as SQMB grown from several seeds at once, and that is how it
is written here.
"""

from __future__ import annotations

from repro.core.con_index import ConnectionIndex
from repro.core.query import BoundingRegion
from repro.core.sqmb import bounding_region


def mqmb_bounding_region(
    con_index: ConnectionIndex,
    start_segments: list[int],
    start_time_s: float,
    duration_s: float,
) -> BoundingRegion:
    """Run Algorithm 3 from the start segment set ``R0 = {r0,1, ..., r0,n}``
    (resolved via ST-Index).

    Raises:
        ValueError: ``start_segments`` is empty.
    """
    return bounding_region(con_index, start_segments, start_time_s, duration_s)
