"""An R-tree for road-segment MBRs.

The ST-Index keeps one R-tree over the (static) re-segmented road network and
shares it across every temporal leaf (§3.2.1: "essentially all the leaf nodes
in the temporal index have the same spatial index structure").  This module
implements:

* STR (sort-tile-recursive) bulk loading — the network is static, so bulk
  loading produces a well-packed tree once at index-construction time;
* Guttman-style dynamic insertion with quadratic split, so incremental
  updates (tests, ablations) also work;
* window queries (:meth:`RTree.search`), point queries and best-first
  nearest-neighbour search (:meth:`RTree.nearest`), which the query processor
  uses to map a query location ``s`` to its start segment ``r0``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.spatial.geometry import BBox, Point

DEFAULT_MAX_ENTRIES = 16


@dataclass
class _Entry:
    bbox: BBox
    child: "_Node | None" = None
    item: Any = None


@dataclass
class _Node:
    is_leaf: bool
    entries: list[_Entry] = field(default_factory=list)

    def bbox(self) -> BBox:
        box = self.entries[0].bbox
        for entry in self.entries[1:]:
            box = box.union(entry.bbox)
        return box


class RTree:
    """A planar R-tree mapping bounding boxes to opaque items.

    Args:
        max_entries: node fan-out; nodes split when they exceed it.
        min_entries: minimum node occupancy after a split (defaults to
            ``max_entries // 2`` like Guttman's m = M/2).
    """

    def __init__(
        self, max_entries: int = DEFAULT_MAX_ENTRIES, min_entries: int | None = None
    ) -> None:
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(1, max_entries // 2)
        )
        if not 1 <= self.min_entries <= self.max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, {self.max_entries // 2}],"
                f" got {self.min_entries}"
            )
        self._root = _Node(is_leaf=True)
        self._size = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        items: list[tuple[BBox, Any]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "RTree":
        """Build a packed tree from ``(bbox, item)`` pairs via STR.

        Sort-tile-recursive packing: sort by centre x, cut into vertical
        slices of ~sqrt(n/M) each, sort each slice by centre y, pack runs of
        ``max_entries``.  Repeats one level up until a single root remains.
        """
        tree = cls(max_entries=max_entries)
        if not items:
            return tree
        entries = [_Entry(bbox=bbox, item=item) for bbox, item in items]
        level_is_leaf = True
        while len(entries) > max_entries:
            entries = tree._str_pack(entries, level_is_leaf)
            level_is_leaf = False
        tree._root = _Node(is_leaf=level_is_leaf, entries=entries)
        tree._size = len(items)
        return tree

    def _str_pack(self, entries: list[_Entry], is_leaf: bool) -> list[_Entry]:
        node_count = math.ceil(len(entries) / self.max_entries)
        slice_count = max(1, math.ceil(math.sqrt(node_count)))
        per_slice = math.ceil(len(entries) / slice_count)
        entries = sorted(entries, key=lambda e: e.bbox.center.x)
        parents: list[_Entry] = []
        for s in range(0, len(entries), per_slice):
            column = sorted(
                entries[s : s + per_slice], key=lambda e: e.bbox.center.y
            )
            for n in range(0, len(column), self.max_entries):
                node = _Node(is_leaf=is_leaf, entries=column[n : n + self.max_entries])
                parents.append(_Entry(bbox=node.bbox(), child=node))
        return parents

    # -- mutation ---------------------------------------------------------

    def insert(self, bbox: BBox, item: Any) -> None:
        """Insert one item (Guttman insert with quadratic split)."""
        entry = _Entry(bbox=bbox, item=item)
        split = self._insert_into(self._root, entry)
        if split is not None:
            old_root = self._root
            self._root = _Node(
                is_leaf=False,
                entries=[
                    _Entry(bbox=old_root.bbox(), child=old_root),
                    _Entry(bbox=split.bbox(), child=split),
                ],
            )
        self._size += 1

    def _insert_into(self, node: _Node, entry: _Entry) -> "_Node | None":
        if node.is_leaf:
            node.entries.append(entry)
        else:
            best = min(
                node.entries,
                key=lambda e: (e.bbox.enlargement(entry.bbox), e.bbox.area),
            )
            split = self._insert_into(best.child, entry)
            best.bbox = best.child.bbox()
            if split is not None:
                node.entries.append(_Entry(bbox=split.bbox(), child=split))
        if len(node.entries) > self.max_entries:
            return self._quadratic_split(node)
        return None

    def _quadratic_split(self, node: _Node) -> _Node:
        """Split ``node`` in place; return the newly created sibling."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        bbox_a, bbox_b = group_a[0].bbox, group_b[0].bbox
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        while rest:
            # Force assignment when one group must absorb all remaining
            # entries to satisfy minimum occupancy.
            if len(group_a) + len(rest) == self.min_entries:
                group_a.extend(rest)
                bbox_a = _union_all(bbox_a, rest)
                rest = []
                break
            if len(group_b) + len(rest) == self.min_entries:
                group_b.extend(rest)
                bbox_b = _union_all(bbox_b, rest)
                rest = []
                break
            best_index, prefer_a = self._pick_next(rest, bbox_a, bbox_b)
            entry = rest.pop(best_index)
            if prefer_a:
                group_a.append(entry)
                bbox_a = bbox_a.union(entry.bbox)
            else:
                group_b.append(entry)
                bbox_b = bbox_b.union(entry.bbox)
        node.entries = group_a
        return _Node(is_leaf=node.is_leaf, entries=group_b)

    @staticmethod
    def _pick_seeds(entries: list[_Entry]) -> tuple[int, int]:
        worst = -1.0
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i].bbox.union(entries[j].bbox).area
                    - entries[i].bbox.area
                    - entries[j].bbox.area
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        return seeds

    @staticmethod
    def _pick_next(
        rest: list[_Entry], bbox_a: BBox, bbox_b: BBox
    ) -> tuple[int, bool]:
        best_index = 0
        best_diff = -1.0
        prefer_a = True
        for i, entry in enumerate(rest):
            grow_a = bbox_a.enlargement(entry.bbox)
            grow_b = bbox_b.enlargement(entry.bbox)
            diff = abs(grow_a - grow_b)
            if diff > best_diff:
                best_diff = diff
                best_index = i
                prefer_a = grow_a < grow_b
        return best_index, prefer_a

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def search(self, window: BBox) -> list[Any]:
        """All items whose bbox intersects ``window``."""
        results: list[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if not entry.bbox.intersects(window):
                    continue
                if node.is_leaf:
                    results.append(entry.item)
                else:
                    stack.append(entry.child)
        return results

    def nearest(
        self,
        point: Point,
        k: int = 1,
        distance: Callable[[Point, Any], float] | None = None,
    ) -> list[Any]:
        """Best-first k-nearest-neighbour search from ``point``.

        Args:
            point: query location.
            k: number of neighbours.
            distance: optional exact item distance used to refine the
                bbox lower bound (e.g. point-to-polyline distance for road
                segments).  Defaults to bbox distance.
        """
        if k <= 0:
            return []
        if self._size == 0:
            return []
        counter = 0
        heap: list[tuple[float, int, _Node | None, Any]] = [
            (0.0, counter, self._root, None)
        ]
        results: list[Any] = []
        while heap and len(results) < k:
            dist, _, node, item = heapq.heappop(heap)
            if node is None:
                results.append(item)
                continue
            for entry in node.entries:
                counter += 1
                if node.is_leaf:
                    if distance is not None:
                        d = distance(point, entry.item)
                    else:
                        d = entry.bbox.distance_to_point(point)
                    heapq.heappush(heap, (d, counter, None, entry.item))
                else:
                    d = entry.bbox.distance_to_point(point)
                    heapq.heappush(heap, (d, counter, entry.child, None))
        return results

    def items(self) -> Iterator[Any]:
        """Iterate every stored item (arbitrary order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if node.is_leaf:
                    yield entry.item
                else:
                    stack.append(entry.child)

    # -- invariants (used by tests) -----------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated."""
        self._check_node(self._root, is_root=True)

    def _check_node(self, node: _Node, is_root: bool) -> int:
        # STR packing may leave boundary nodes below Guttman's minimum
        # occupancy, so the structural requirement is only non-emptiness.
        if not is_root:
            assert len(node.entries) >= 1, "empty node"
        assert len(node.entries) <= self.max_entries, "overfull node"
        if node.is_leaf:
            return 1
        depths = set()
        for entry in node.entries:
            assert entry.child is not None
            assert entry.bbox.contains_bbox(entry.child.bbox()), "stale parent bbox"
            depths.add(self._check_node(entry.child, is_root=False))
        assert len(depths) == 1, "unbalanced tree"
        return depths.pop() + 1


def _union_all(box: BBox, entries: list[_Entry]) -> BBox:
    for entry in entries:
        box = box.union(entry.bbox)
    return box
