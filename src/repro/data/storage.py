"""The storage engine underneath every evaluation layer.

Three ideas, reused by the centralized evaluator, the distributed plans,
the per-worker local engine and the Datalog baseline:

* **Trusted construction** — :meth:`Relation._from_trusted
  <repro.data.relation.Relation._from_trusted>` builds a relation from
  already-aligned rows without re-validating them.  Validation happens once
  at ingestion (``Relation(...)``, ``from_dicts``, :class:`RelationBuilder`);
  internal operators, whose outputs are correct by construction, skip it.

* **Cached hash indexes** — :class:`HashIndex` is a hash table from key
  values to rows.  Relations memoize the indexes built on them (they are
  immutable, so an index never goes stale), which turns the repeated joins
  of a semi-naive loop against a loop-invariant relation into pure probes:
  the build cost is paid once, on the first iteration.  The memoization
  lives *on the relation object*, so an index can never outlive its data —
  the stale-index-after-GC failure mode of an external ``id()``-keyed cache
  is impossible by construction.

* **Delta accumulation** — :class:`DeltaAccumulator` maintains the growing
  result of a fixpoint as one mutable set, so each iteration costs
  O(|produced|) instead of rebuilding the frozenset of the whole
  accumulated result (``result.union(new)``) every round.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Any

from ..errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (relation.py imports us)
    from .relation import Relation

Row = tuple


class HashIndex:
    """A hash table from key-position values to the rows carrying them.

    The index is representation-level: rows are plain aligned tuples and
    keys are tuples of the values at ``key_positions``.  Relations wrap it
    with column-name resolution (:meth:`Relation.index_on
    <repro.data.relation.Relation.index_on>`); the Datalog engine uses it
    directly on fact tuples and grows it incrementally with :meth:`extend`
    as new facts are derived.
    """

    __slots__ = ("key_positions", "buckets", "_count")

    def __init__(self, rows: Iterable[Row], key_positions: tuple[int, ...]):
        self.key_positions = key_positions
        buckets: dict[tuple, list[Row]] = {}
        count = 0
        for row in rows:
            key = tuple(row[i] for i in key_positions)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
            count += 1
        self.buckets = buckets
        self._count = count

    def probe(self, key: tuple) -> list[Row]:
        """Return the rows whose key positions equal ``key`` (possibly []).

        A miss returns a **fresh** empty list: callers are free to mutate
        whatever ``probe`` hands back (the Datalog engine accumulates into
        probe results), and a shared empty-bucket singleton would let one
        such mutation corrupt every future empty probe process-wide.
        """
        bucket = self.buckets.get(key)
        return bucket if bucket is not None else []

    def __contains__(self, key: tuple) -> bool:
        return key in self.buckets

    def __len__(self) -> int:
        # Maintained at build/extend time: __len__ sits on the repr/metrics
        # hot path and must not walk every bucket per call.
        return self._count

    def extend(self, rows: Iterable[Row]) -> None:
        """Add rows to the index (delta maintenance for growing fact sets)."""
        buckets = self.buckets
        key_positions = self.key_positions
        count = 0
        for row in rows:
            key = tuple(row[i] for i in key_positions)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
            count += 1
        self._count += count

    def __repr__(self) -> str:
        return (f"HashIndex(positions={self.key_positions}, "
                f"keys={len(self.buckets)}, rows={len(self)})")


class RelationBuilder:
    """A validating, mutable accumulator that builds a relation once.

    This is the ingestion-side companion of the trusted constructor: rows
    are checked as they are added (width for tuples, exact schema for
    mappings), then :meth:`build` materialises the relation through the
    zero-copy path — the frozenset is handed over, never re-validated.
    """

    def __init__(self, columns: Iterable[str]):
        ordered = tuple(sorted(columns))
        if len(set(ordered)) != len(ordered):
            raise SchemaError(f"duplicate column names in schema {ordered}")
        for name in ordered:
            if not isinstance(name, str) or not name:
                raise SchemaError(
                    f"column names must be non-empty strings, got {name!r}")
        self._columns = ordered
        self._width = len(ordered)
        self._rows: set[Row] = set()

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    def __len__(self) -> int:
        return len(self._rows)

    def add_row(self, row: Iterable[Any]) -> None:
        """Add one row given as values aligned with the sorted schema."""
        row = tuple(row)
        if len(row) != self._width:
            raise SchemaError(
                f"row {row!r} has {len(row)} values but schema "
                f"{self._columns} has {self._width} columns")
        self._rows.add(row)

    def add_mapping(self, mapping: Mapping[str, Any]) -> None:
        """Add one row given as a column-name mapping."""
        if set(mapping.keys()) != set(self._columns):
            raise SchemaError(
                f"row {dict(mapping)!r} does not match schema {self._columns}")
        self._rows.add(tuple(mapping[c] for c in self._columns))

    def update(self, rows: Iterable[Iterable[Any]]) -> None:
        """Add many aligned rows."""
        for row in rows:
            self.add_row(row)

    def build(self) -> "Relation":
        """Materialise the accumulated rows as an immutable relation."""
        from .relation import Relation
        return Relation._from_trusted(self._columns, frozenset(self._rows))


class DeltaAccumulator:
    """The growing result of a semi-naive fixpoint, maintained in place.

    Rebuilding the result per iteration (``result.union(new)`` after
    ``produced.difference(result)``) costs O(|result_i|) on iteration *i*
    even when the delta is tiny.  The accumulator keeps one mutable
    ``set`` for the whole loop::

        delta = accumulator.absorb(produced)   # O(|produced|)

    and materialises the final relation exactly once (:meth:`relation`).
    """

    def __init__(self, seed: "Relation"):
        self._columns = seed.columns
        self._seen: set[Row] = set(seed.rows)

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    def __len__(self) -> int:
        return len(self._seen)

    def absorb(self, produced: "Relation") -> "Relation":
        """Fold one iteration's output in; return the genuinely new delta."""
        from .relation import Relation
        if produced.columns != self._columns:
            # Guard against raw row-set mixing across schemas: same-width
            # rows would merge silently, different widths would never
            # converge.
            raise SchemaError(
                f"cannot absorb schema {produced.columns} into accumulator "
                f"over {self._columns}")
        fresh = produced.rows - self._seen
        self._seen |= fresh
        return Relation._from_trusted(self._columns, frozenset(fresh))

    def relation(self) -> "Relation":
        """Materialise the accumulated result (one O(n) copy, at the end)."""
        from .relation import Relation
        return Relation._from_trusted(self._columns, frozenset(self._seen))
