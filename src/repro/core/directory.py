"""The ST-Index time-list directory: ``(segment, slot)`` -> record chain.

The leaf pointers of Fig. 3.2.  Every time list is a *chain* of records on
the page store — the bulk build writes one per ``(segment, slot)`` entry,
each later append adds one — and the directory maps the entry to its
records' extent pointers ``(first_page, num_pages, offset, length)``.

:class:`TimeListDirectory` is the one owner of that table's layout, in RAM
as in ``directory.npz`` and in a replica payload: rows sorted by ``(segment,
slot, position)``, looked up through one sorted packed-key column
``segment * num_slots + slot``.  Records appended since the rows were
adopted wait in a small overflow map, so an append costs O(entries
touched); the overflow is merged into the sorted rows when the columns are
next exported.
"""

from __future__ import annotations

import numpy as np

from repro.io.persist import PersistFormatError
from repro.trajectory.model import SECONDS_PER_DAY

#: The directory as seven aligned ``int64`` columns, one row per chain
#: record in ``(segment, slot, position)`` order: the arrays
#: ``directory.npz`` stores and a replica payload ships.
DIRECTORY_COLUMNS = (
    "dir_segment",
    "dir_slot",
    "dir_position",
    "dir_first_page",
    "dir_num_pages",
    "dir_offset",
    "dir_length",
)

#: One record's extent pointer ``(first_page, num_pages, offset, length)``.
Pointer = tuple[int, int, int, int]

_INT64_MAX = np.iinfo(np.int64).max
#: Packed-key value no ``(segment, slot)`` produces.
_NO_KEY = np.iinfo(np.int64).min


def slots_per_day(delta_t_s: int) -> int:
    """Number of Δt slots in a day (the last one may be shorter)."""
    return -(-SECONDS_PER_DAY // delta_t_s)


def _first(mask: np.ndarray) -> int:
    """Index of the first set row, or ``mask.size`` when none is."""
    return int(mask.argmax()) if mask.any() else mask.size


def _chain_positions(keys: np.ndarray) -> np.ndarray:
    """Each row's index within its run of equal (sorted) ``keys``."""
    rows = keys.size
    if rows == 0:
        return np.empty(0, dtype=np.int64)
    new_chain = np.empty(rows, dtype=bool)
    new_chain[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_chain[1:])
    starts = np.flatnonzero(new_chain)
    return np.arange(rows) - np.repeat(starts, np.diff(np.append(starts, rows)))


def _bad_pointers(pointers: np.ndarray, num_pages_total: int, page_size: int) -> np.ndarray:
    """Mask of extent pointers (rows of four) that leave the page range.

    A corrupt pointer would otherwise serve wrong bytes (or charge the
    wrong number of page reads) deep inside a query instead of failing
    at load time.  Written so that no int64 garbage can wrap a sum back
    into range.
    """
    first_page, pages, offset, length = pointers.T
    bad = (
        (pages < 1)
        | (pages > num_pages_total)
        | (first_page < 0)
        | (first_page > num_pages_total - pages)
        | (offset < 0)
        | (length < 0)
    )
    capacity = np.where(bad, 0, pages) * page_size
    return bad | (offset > capacity) | (length > capacity - offset)


class TimeListDirectory:
    """``(segment, slot)`` -> chain of record pointers, as sorted columns.

    Args:
        num_slots: Δt slots per day; a slot outside ``[0, num_slots)``
            names no entry.
        keys: packed ``segment * num_slots + slot`` per record, ascending,
            rows of one chain adjacent in append order.
        pointers: the aligned ``(rows, 4)`` ``int64`` extent pointers.

    The constructor *adopts* rows its caller vouches for (the bulk build's
    own output); anything read back from a file, a journal or a pipe goes
    through :meth:`from_columns` / :meth:`extend`, which validate.  Readers
    may probe concurrently with one appender; exporting (:meth:`columns`,
    :meth:`page_ids`, ...) while an append runs is not supported.
    """

    def __init__(
        self,
        num_slots: int,
        keys: np.ndarray | None = None,
        pointers: np.ndarray | None = None,
    ) -> None:
        self.num_slots = num_slots
        if keys is None:
            keys = np.empty(0, dtype=np.int64)
            pointers = np.empty((0, 4), dtype=np.int64)
        self._adopt(keys, pointers)

    def _adopt(self, keys: np.ndarray, pointers: np.ndarray) -> None:
        repeats = keys[1:] == keys[:-1]
        self._num_keys = int(keys.size - np.count_nonzero(repeats))
        # One attribute, replaced whole, so a concurrent probe sees either
        # the rows before a merge with their overflow or the merged rows
        # with none.  The trailing ``_NO_KEY`` lets a probe index the keys
        # at ``searchsorted``'s past-the-end answer.
        self._state: tuple[np.ndarray, np.ndarray, bool, dict[int, list[Pointer]]] = (
            np.append(keys, _NO_KEY),
            pointers,
            bool(repeats.any()),
            {},
        )

    def __len__(self) -> int:
        """Number of distinct ``(segment, slot)`` entries."""
        return self._num_keys

    # -- validation -------------------------------------------------------

    def _checked_keys(
        self,
        what: str,
        segment: np.ndarray,
        slot: np.ndarray,
        pointers: np.ndarray,
        num_pages_total: int,
        page_size: int,
        position: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed keys of the rows and their stable sort order, or raise.

        The first offending row decides the :class:`PersistFormatError`: a
        ``(segment, slot)`` that names no entry (with a packed key it would
        alias a real one), a ``position`` that is not 0, 1, 2, ... along
        its chain in row order, or a pointer outside the page range.
        """
        rows = segment.size
        bad_key = (
            (segment < 0)
            | (segment >= _INT64_MAX // self.num_slots)
            | (slot < 0)
            | (slot >= self.num_slots)
        )
        keys = segment * self.num_slots + slot
        keys[bad_key] = _NO_KEY
        # Stable: rows of one chain keep their row order.
        order = np.argsort(keys, kind="stable")
        first_key = _first(bad_key)
        first_misplaced = rows
        if position is not None:
            misplaced = position[order] != _chain_positions(keys[order])
            if misplaced.any():
                first_misplaced = int(order[misplaced].min())
        first_pointer = _first(_bad_pointers(pointers, num_pages_total, page_size))
        first = min(first_key, first_misplaced, first_pointer)
        if first == rows:
            return keys, order
        if first == first_key:
            raise PersistFormatError(
                f"{what} row {first} names no entry: segment {int(segment[first])}, "
                f"slot {int(slot[first])} of {self.num_slots} slots per day"
            )
        if first == first_misplaced:
            raise PersistFormatError(f"{what} rows out of chain order")
        first_page, pages, offset, length = pointers[first].tolist()
        raise PersistFormatError(
            f"{what} pointer ({first_page}, {pages}, {offset}, {length}) "
            "outside the persisted page range"
        )

    @classmethod
    def from_columns(
        cls, columns, num_slots: int, num_pages_total: int, page_size: int, what: str
    ) -> "TimeListDirectory":
        """Inverse of :meth:`columns`, validated.

        Rows of one chain may be scattered but must carry positions 0, 1,
        2, ... in row order, every key must name an entry and every
        pointer lie inside the ``num_pages_total`` pages; the first
        offending row raises :class:`PersistFormatError` before anything
        is served.
        """
        arrays = [np.asarray(columns[name]) for name in DIRECTORY_COLUMNS]
        if len({arr.shape for arr in arrays}) != 1 or arrays[0].ndim != 1:
            raise PersistFormatError(f"{what} columns have mismatched shapes")
        for name, arr in zip(DIRECTORY_COLUMNS, arrays):
            if not np.issubdtype(arr.dtype, np.integer):
                raise PersistFormatError(
                    f"{what} column {name} holds {arr.dtype}, not integers"
                )
        segment, slot, position, *pointer = (a.astype(np.int64, copy=False) for a in arrays)
        pointers = np.column_stack(pointer)
        directory = cls(num_slots)
        keys, order = directory._checked_keys(
            what, segment, slot, pointers, num_pages_total, page_size, position
        )
        directory._adopt(keys[order], pointers[order])
        return directory

    # -- lookup, append, export -------------------------------------------

    def probe(self, segment_ids, slots) -> list[tuple[Pointer, ...]]:
        """Chains of every ``(segment, slot)`` pair, segment-major.

        ``slots`` must lie in ``[0, num_slots)``.  One chain per pair in
        request order — ``()`` for an absent entry — each a tuple of
        :data:`Pointer` int tuples: the rows adopted at the last merge by
        position, then the records appended since in append order.
        """
        guarded, pointers, chained, overflow = self._state
        wanted = (
            np.array(segment_ids, dtype=np.int64)[:, None] * self.num_slots
            + np.array(slots, dtype=np.int64)
        ).ravel()
        lo = np.searchsorted(guarded[:-1], wanted)
        chains: list[tuple] = [()] * wanted.size
        if chained:
            hi = np.searchsorted(guarded[:-1], wanted, side="right")
            for i in np.flatnonzero(hi > lo).tolist():
                chains[i] = tuple(map(tuple, pointers[lo[i] : hi[i]].tolist()))
        else:
            hit = guarded[lo] == wanted
            for i, row in zip(np.flatnonzero(hit).tolist(), pointers[lo[hit]].tolist()):
                chains[i] = (tuple(row),)
        if overflow:
            for i, key in enumerate(wanted.tolist()):
                appended = overflow.get(key)
                if appended:
                    chains[i] += tuple(appended)
        return chains

    def extend(self, rows, num_pages_total: int, page_size: int, what: str) -> None:
        """Append ``(segment, slot, first_page, num_pages, offset, length)``
        rows to their chains, validated like :meth:`from_columns`.

        The one way a record joins a built directory — a live append and a
        journal replay alike — at O(rows): the sorted columns are not
        touched until the next export.
        """
        try:
            rows = np.array(rows, dtype=np.int64).reshape(-1, 6)
        except (OverflowError, ValueError) as exc:
            raise PersistFormatError(f"{what} is malformed: {exc}") from None
        keys, _ = self._checked_keys(
            what, rows[:, 0], rows[:, 1], rows[:, 2:], num_pages_total, page_size
        )
        guarded, _, _, overflow = self._state
        known = guarded[np.searchsorted(guarded[:-1], keys)] == keys
        for key, in_base, pointer in zip(
            keys.tolist(), known.tolist(), rows[:, 2:].tolist()
        ):
            chain = overflow.get(key)
            if chain is None:
                chain = overflow[key] = []
                self._num_keys += not in_base
            chain.append(tuple(pointer))

    def _merged(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted keys and pointers, the overflow folded in for good."""
        guarded, pointers, _, overflow = self._state
        keys = guarded[:-1]
        if overflow:
            appended = np.array(
                [(key, *pointer) for key, chain in overflow.items() for pointer in chain],
                dtype=np.int64,
            )
            keys = np.concatenate((keys, appended[:, 0]))
            # Stable: a key's appended records follow its sorted rows.
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            pointers = np.concatenate((pointers, appended[:, 1:]))[order]
            self._adopt(keys, pointers)
        return keys, pointers

    def columns(self) -> dict[str, np.ndarray]:
        """The directory as :data:`DIRECTORY_COLUMNS`.

        Rows are in ``(segment, slot, position)`` order whatever order the
        chains were created in, so equal directories export equal arrays.
        """
        keys, pointers = self._merged()
        segment, slot = np.divmod(keys, self.num_slots)
        return dict(
            zip(
                DIRECTORY_COLUMNS,
                (segment, slot, _chain_positions(keys), *np.ascontiguousarray(pointers.T)),
            )
        )

    def page_ids(self) -> np.ndarray:
        """Ascending ids of every page some record's extent covers."""
        _, pointers = self._merged()
        # Union of the extents: +1 where one starts, -1 past its end.
        ends = pointers[:, 0] + pointers[:, 1]
        bins = int(ends.max(initial=0)) + 1
        depth = np.cumsum(
            np.bincount(pointers[:, 0], minlength=bins)
            - np.bincount(ends, minlength=bins)
        )
        return np.flatnonzero(depth)

    def record_bytes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(segment id, time-list bytes)`` of every record, by segment."""
        keys, pointers = self._merged()
        return keys // self.num_slots, pointers[:, 3]
