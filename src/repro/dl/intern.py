"""Dense integer interning for concepts and roles, plus bitset helpers.

The reasoning hot paths (tableau labels, saturation subsumer sets,
hierarchy subsumer masks) all manipulate
*sets of things drawn from a small, fixed vocabulary*.  Hashing frozen
``Concept`` dataclasses and unioning Python ``set``s of them is what the
profiler shows; this module replaces both:

* :class:`InternTable` assigns every distinct item a dense int id in
  first-seen order (so id order is deterministic whenever the call
  sequence is), and maps ids back to items for the rare display paths;
* sets of ids are plain Python ``int`` bitmasks — union is ``|``,
  intersection ``&``, subset ``mask & other == mask`` — with
  :class:`BitSet` providing the few non-operator helpers (iteration,
  popcount) the callers need.

Every fresh id ticks the ``intern.table_size`` counter, so a bench run
shows exactly how large the interned universe got.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Optional

from ..obs import recorder as _obs


class BitSet:
    """Namespace of helpers over int bitmasks (no instances needed)."""

    @staticmethod
    def of(ids: "Iterator[int] | list[int] | tuple[int, ...] | set[int]") -> int:
        """The mask with exactly the given bit positions set."""
        mask = 0
        for i in ids:
            mask |= 1 << i
        return mask

    @staticmethod
    def bits(mask: int) -> Iterator[int]:
        """Set bit positions of ``mask``, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    @staticmethod
    def has(mask: int, i: int) -> bool:
        return bool(mask >> i & 1)

    @staticmethod
    def count(mask: int) -> int:
        return mask.bit_count()


class InternTable:
    """A bijective item ↔ dense-int-id table, ids assigned in call order."""

    __slots__ = ("_ids", "_items")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._items: list[Any] = []

    def intern(self, item: Hashable) -> int:
        """The id of ``item``, assigning the next dense id on first sight."""
        ids = self._ids
        found = ids.get(item)
        if found is not None:
            return found
        new = len(self._items)
        ids[item] = new
        self._items.append(item)
        _obs.incr("intern.table_size")
        return new

    def get(self, item: Hashable) -> Optional[int]:
        """The id of ``item`` if already interned, else ``None`` (no growth)."""
        return self._ids.get(item)

    def mask(self, items) -> int:
        """The bitmask of the (interned) ids of ``items``."""
        mask = 0
        for item in items:
            mask |= 1 << self.intern(item)
        return mask

    def __getitem__(self, i: int) -> Any:
        return self._items[i]

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._ids

    def items(self) -> list[Any]:
        """All interned items, id order (index == id)."""
        return list(self._items)

    def prefix(self, size: int) -> "InternTable":
        """A new table of the first ``size`` items, each under its id here."""
        table = object.__new__(type(self))
        table._items = self._items[:size]
        table._ids = {item: i for i, item in enumerate(table._items)}
        return table


#: Fixed ids of ⊤ and ⊥ in every :class:`ConceptTable`.
TOP_ID = 0
BOTTOM_ID = 1


class ConceptTable(InternTable):
    """An :class:`InternTable` with ⊤ pinned to id 0 and ⊥ to id 1."""

    __slots__ = ()

    def __init__(self) -> None:
        from .syntax import BOTTOM, TOP

        super().__init__()
        assert self.intern(TOP) == TOP_ID
        assert self.intern(BOTTOM) == BOTTOM_ID
