"""Immutable named tuples (mappings from column names to values).

The mu-RA data model manipulates *tuples* in the relational sense: finite
mappings from column names to values, e.g. ``{src: 1, dst: 2}``.  The
:class:`Tup` class is a small immutable, hashable mapping used at API
boundaries (building relations from dictionaries, returning query results
as dictionaries).  Internally :class:`~repro.data.relation.Relation` stores
rows as plain value tuples aligned with a sorted schema for speed; ``Tup``
is the user-facing view of a single row.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any


class Tup(Mapping):
    """An immutable, hashable mapping from column names to values.

    ``Tup`` behaves like a read-only dictionary and can therefore be used
    wherever a mapping is expected, but it is hashable and can be stored in
    sets, which is how relations (sets of tuples) are modelled.

    >>> t = Tup(src=1, dst=2)
    >>> t["src"]
    1
    >>> sorted(t.columns())
    ['dst', 'src']
    >>> t == Tup({"dst": 2, "src": 1})
    True
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Mapping[str, Any] | None = None, **columns: Any):
        merged: dict[str, Any] = {}
        if mapping is not None:
            merged.update(mapping)
        merged.update(columns)
        for name in merged:
            if not isinstance(name, str) or not name:
                raise TypeError(f"column names must be non-empty strings, got {name!r}")
        self._items = tuple(sorted(merged.items()))
        self._hash = hash(self._items)

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, column: str) -> Any:
        for name, value in self._items:
            if name == column:
                return value
        raise KeyError(column)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tup):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in self._items)
        return f"Tup({inner})"

    # -- Relational helpers ------------------------------------------------

    def columns(self) -> tuple[str, ...]:
        """Return the (sorted) column names of this tuple."""
        return tuple(name for name, _ in self._items)

    def project(self, columns: tuple[str, ...]) -> "Tup":
        """Return a new tuple restricted to ``columns``."""
        as_dict = dict(self._items)
        return Tup({c: as_dict[c] for c in columns})

    def drop(self, columns: tuple[str, ...] | str) -> "Tup":
        """Return a new tuple without the given column(s) (anti-projection)."""
        if isinstance(columns, str):
            columns = (columns,)
        dropped = set(columns)
        return Tup({c: v for c, v in self._items if c not in dropped})

    def rename(self, old: str, new: str) -> "Tup":
        """Return a new tuple where column ``old`` has been renamed ``new``."""
        as_dict = dict(self._items)
        if old not in as_dict:
            raise KeyError(old)
        value = as_dict.pop(old)
        as_dict[new] = value
        return Tup(as_dict)

    def merge(self, other: "Tup | Mapping[str, Any]") -> "Tup":
        """Merge two compatible tuples (they must agree on common columns).

        Raises ``ValueError`` when the tuples disagree on a shared column,
        mirroring the semantics of the natural join.
        """
        as_dict = dict(self._items)
        for name, value in dict(other).items():
            if name in as_dict and as_dict[name] != value:
                raise ValueError(
                    f"cannot merge tuples: column {name!r} has conflicting "
                    f"values {as_dict[name]!r} and {value!r}"
                )
            as_dict[name] = value
        return Tup(as_dict)

    def as_dict(self) -> dict[str, Any]:
        """Return a plain mutable dictionary copy of this tuple."""
        return dict(self._items)
