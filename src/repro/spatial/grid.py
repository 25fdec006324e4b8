"""A uniform grid spatial index.

§5.1 discusses grid-based structures (SETI-style) as the standard
alternative to R-trees for trajectory data.  We keep one as an ablation
comparator for the ST-Index's start-segment lookup
(``benchmarks/test_ablation_spatial.py``): same query interface as the
R-tree comparator in ``tests/reference/rtree.py``, different guts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Callable, Iterator

from repro.spatial.geometry import BBox, Point


class GridIndex:
    """Buckets items by the grid cells their bounding boxes overlap.

    Args:
        bounds: overall spatial extent covered by the grid.
        cell_size: side length of one square cell, in the same units as
            ``bounds`` (metres in this codebase).
    """

    def __init__(self, bounds: BBox, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.bounds = bounds
        self.cell_size = cell_size
        self.cols = max(1, math.ceil(bounds.width / cell_size))
        self.rows = max(1, math.ceil(bounds.height / cell_size))
        self._cells: dict[tuple[int, int], list[tuple[BBox, Any]]] = defaultdict(list)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- mutation ---------------------------------------------------------

    def insert(self, bbox: BBox, item: Any) -> None:
        for cell in self._cells_for(bbox):
            self._cells[cell].append((bbox, item))
        self._size += 1

    # -- queries ------------------------------------------------------------

    def search(self, window: BBox) -> list[Any]:
        """All items whose bbox intersects ``window`` (deduplicated)."""
        seen: set[int] = set()
        results: list[Any] = []
        for cell in self._cells_for(window):
            for bbox, item in self._cells.get(cell, ()):
                if id(item) in seen:
                    continue
                if bbox.intersects(window):
                    seen.add(id(item))
                    results.append(item)
        return results

    def nearest(
        self,
        point: Point,
        k: int = 1,
        distance: Callable[[Point, Any], float] | None = None,
    ) -> list[Any]:
        """k nearest items by expanding rings of cells around ``point``."""
        if k <= 0 or self._size == 0:
            return []
        if distance is None:
            distance = lambda p, item_with_box: 0.0  # noqa: E731 - replaced below
        col0, row0 = self._cell_of(point)
        best: list[tuple[float, int, Any]] = []
        seen: set[int] = set()
        counter = 0
        max_radius = max(self.cols, self.rows)
        for radius in range(0, max_radius + 1):
            for col, row in self._ring(col0, row0, radius):
                for bbox, item in self._cells.get((col, row), ()):
                    if id(item) in seen:
                        continue
                    seen.add(id(item))
                    d = (
                        bbox.distance_to_point(point)
                        if distance is None
                        else distance(point, item)
                    )
                    counter += 1
                    best.append((d, counter, item))
            if len(best) >= k:
                # One extra ring guards against a closer item that lives in
                # the next ring (its cell centre is farther but its geometry
                # is nearer).
                for col, row in self._ring(col0, row0, radius + 1):
                    for bbox, item in self._cells.get((col, row), ()):
                        if id(item) in seen:
                            continue
                        seen.add(id(item))
                        counter += 1
                        d = (
                            bbox.distance_to_point(point)
                            if distance is None
                            else distance(point, item)
                        )
                        best.append((d, counter, item))
                break
        best.sort()
        return [item for _, _, item in best[:k]]

    def items(self) -> Iterator[Any]:
        seen: set[int] = set()
        for bucket in self._cells.values():
            for _, item in bucket:
                if id(item) not in seen:
                    seen.add(id(item))
                    yield item

    # -- internal ---------------------------------------------------------

    def _cell_of(self, point: Point) -> tuple[int, int]:
        col = int((point.x - self.bounds.min_x) // self.cell_size)
        row = int((point.y - self.bounds.min_y) // self.cell_size)
        return (
            max(0, min(self.cols - 1, col)),
            max(0, min(self.rows - 1, row)),
        )

    def _cells_for(self, bbox: BBox) -> Iterator[tuple[int, int]]:
        lo_col, lo_row = self._cell_of(Point(bbox.min_x, bbox.min_y))
        hi_col, hi_row = self._cell_of(Point(bbox.max_x, bbox.max_y))
        for col in range(lo_col, hi_col + 1):
            for row in range(lo_row, hi_row + 1):
                yield col, row

    def _ring(self, col0: int, row0: int, radius: int) -> Iterator[tuple[int, int]]:
        if radius == 0:
            if 0 <= col0 < self.cols and 0 <= row0 < self.rows:
                yield col0, row0
            return
        for col in range(col0 - radius, col0 + radius + 1):
            for row in (row0 - radius, row0 + radius):
                if 0 <= col < self.cols and 0 <= row < self.rows:
                    yield col, row
        for row in range(row0 - radius + 1, row0 + radius):
            for col in (col0 - radius, col0 + radius):
                if 0 <= col < self.cols and 0 <= row < self.rows:
                    yield col, row
