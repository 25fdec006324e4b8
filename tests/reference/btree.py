"""A B+-tree: the paper's temporal index, kept as a comparator.

The paper splits each day into Δt-minute slots and "build[s] a B-tree upon
all the small temporal intervals to speed up the temporal range selection"
(§3.2.1).  Keys are slot start offsets (seconds since midnight, or any
orderable scalar); values are opaque.  Leaves are chained for range scans
over ``[T, T+L]``.  Every slot starts at exactly ``k·Δt``, so the ST-Index
answers these lookups by arithmetic (``repro.core.slots``);
``tests/test_slots.py`` checks that arithmetic against this tree.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator

DEFAULT_ORDER = 32


@dataclass
class _Leaf:
    keys: list[Any] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)
    next: "_Leaf | None" = None


@dataclass
class _Internal:
    keys: list[Any] = field(default_factory=list)
    children: list[Any] = field(default_factory=list)  # _Leaf | _Internal


class BPlusTree:
    """A B+-tree with linked leaves.

    Args:
        order: maximum number of keys per node.
    """

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 3:
            raise ValueError(f"order must be >= 3, got {order}")
        self.order = order
        self._root: _Leaf | _Internal = _Leaf()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- point access --------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep_key, right = split
            self._root = _Internal(keys=[sep_key], children=[self._root, right])

    # -- range access --------------------------------------------------------

    def range(self, low: Any, high: Any) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``low <= key <= high`` in order."""
        if low > high:
            return
        leaf = self._find_leaf(low)
        index = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if key > high:
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next
            index = 0

    def floor(self, key: Any) -> tuple[Any, Any] | None:
        """The greatest ``(k, v)`` with ``k <= key``, or None.

        This is how a timestamp is mapped to the slot containing it.
        """
        result: tuple[Any, Any] | None = None
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        index = bisect.bisect_right(node.keys, key) - 1
        if index >= 0:
            return node.keys[index], node.values[index]
        # The floor may live in an earlier leaf only if key < every key in
        # tree order along this path, which means there is no floor at all
        # for a B+-tree descended by bisect_right.
        return result

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All pairs in key order."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf: _Leaf | None = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    # -- internals -------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def _insert(
        self, node: _Leaf | _Internal, key: Any, value: Any
    ) -> tuple[Any, Any] | None:
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._size += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(index, sep_key)
        node.children.insert(index + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    @staticmethod
    def _split_leaf(leaf: _Leaf) -> tuple[Any, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf(keys=leaf.keys[mid:], values=leaf.values[mid:], next=leaf.next)
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        return right.keys[0], right

    @staticmethod
    def _split_internal(node: _Internal) -> tuple[Any, _Internal]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal(keys=node.keys[mid + 1 :], children=node.children[mid + 1 :])
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- invariants (used by tests) --------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError on structural violations."""
        self._check(self._root, is_root=True)
        keys = list(self.keys())
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == self._size, "size mismatch"

    def _check(self, node: _Leaf | _Internal, is_root: bool) -> int:
        if isinstance(node, _Leaf):
            assert len(node.keys) == len(node.values)
            assert len(node.keys) <= self.order
            return 1
        assert len(node.children) == len(node.keys) + 1
        assert len(node.keys) <= self.order
        if not is_root:
            assert len(node.keys) >= 1
        depths = {self._check(child, is_root=False) for child in node.children}
        assert len(depths) == 1, "unbalanced B+-tree"
        return depths.pop() + 1
