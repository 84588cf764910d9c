"""Columnar storage: dictionary-encoded ids, code indexes, code-tuple sets.

The row engine stores a relation as a frozenset of value tuples and
hashes and compares arbitrary node ids in every join of every semi-naive
iteration.  This module provides what the fused fixpoint step
(:mod:`repro.algebra.kernels`) works on instead:

* :class:`ValueDictionary` — an interning dictionary mapping arbitrary
  (hashable) node ids to small dense integers.  One dictionary is shared
  per snapshot (via :meth:`DatabaseSnapshot.derived
  <repro.data.snapshot.DatabaseSnapshot.derived>`), so every relation of
  one graph agrees on the codes and joins compare plain ``int``s.
* :class:`ColumnarRelation` — the *storage* encoding of a relation:
  parallel :mod:`array`-module integer columns aligned with the sorted
  schema, memoized on the relation object exactly like
  :meth:`Relation.index_on <repro.data.relation.Relation.index_on>` (see
  :meth:`Relation.columnar <repro.data.relation.Relation.columnar>`), and
  carrying the key -> payload indexes a step probes.  A loop-invariant
  relation is encoded and indexed once per snapshot version, not once
  per iteration or execution.
* :class:`CodeRows` — a relation as a ``set`` of packed code tuples,
  the working representation of a fixpoint from its seed to its result:
  a seed program (:mod:`repro.algebra.kernels`) produces one, the
  distributed plans split it into ``Pplw`` chunks and ``Pgld``
  partitions — with exactly the row engine's assignments (round robin
  over the canonical ``repr`` order, or a hash of the key values) — and
  the step consumes and produces such sets.
* :class:`ColumnarDeltaAccumulator` — the
  :class:`~repro.data.storage.DeltaAccumulator`-shaped delta path of the
  columnar fixpoint loop: it subtracts and unions the step's sets, and
  one :func:`decode_rows` at the very end — the only decode of a
  fixpoint's rows — turns the result back into a ``Relation``.
* :class:`GroupedDeltaAccumulator` — the same for a binary fixpoint
  factorized on its stable column (:class:`CodeGroups`, ``{key code: set
  of member codes}``), deduplicated and decoded per key.

A context-local escape hatch, :func:`row_mode`, pins the row engine (the
differential harness proves both engines agree) — results returned to
callers are plain ``Relation`` objects either way, so cache keys and
snapshots never see codes.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterable
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from ..obs.metrics import get_registry
from ..check.sanitizer import ordered_lock
from .relation import deal_round_robin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (relation.py imports us)
    from .relation import Relation

#: Snapshot ``derived()`` key under which the per-snapshot dictionary lives.
SNAPSHOT_DICTIONARY_KEY = "columnar_value_dictionary"

#: Context-local switch for the columnar execution kernels.  ``True`` in
#: normal operation; :func:`row_mode` flips it so benchmarks and the
#: differential harness can pin the row engine.  A ContextVar scopes the
#: flip to the flipping context only — task threads run in a copy of it,
#: pool processes do not, so a layer that ships work there ships the
#: choice with the task (see ``plans.run_local_loop``).
_columnar_enabled: ContextVar[bool] = ContextVar("repro_columnar_enabled",
                                                default=True)


def columnar_enabled() -> bool:
    """True when fixpoint loops may run on the columnar kernels."""
    return _columnar_enabled.get()


@contextmanager
def row_mode():
    """Run a block on the row engine, columnar kernels disabled."""
    token = _columnar_enabled.set(False)
    try:
        yield
    finally:
        _columnar_enabled.reset(token)


class ValueDictionary:
    """Interning dictionary from node ids to dense integer codes.

    ``encode_column`` is the hot path: it appends codes for a whole column
    of values, taking the lock only when a *new* value must be interned —
    two threads racing to intern different values would otherwise both
    claim ``len(values)`` as their code.  Reads (``lookup``, ``decode``)
    are lock-free: codes are append-only and never reassigned.
    """

    __slots__ = ("_codes", "values", "_lock")

    def __init__(self) -> None:
        self._codes: dict[Any, int] = {}
        #: Code -> value, positionally.  Public so kernels can decode with
        #: ``map(values.__getitem__, column)`` — no method call per cell.
        self.values: list[Any] = []
        self._lock = ordered_lock("columnar.dictionary")

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, value: Any) -> int:
        """Return the code of ``value``, interning it if new."""
        code = self._codes.get(value)
        if code is None:
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    code = len(self.values)
                    self.values.append(value)
                    self._codes[value] = code
        return code

    def encode_column(self, values: Iterable[Any]) -> array:
        """Encode one column of values into an ``array('q')`` of codes."""
        codes = self._codes
        get = codes.get
        out: list[int] = []
        append = out.append
        for value in values:
            code = get(value)
            if code is None:
                with self._lock:
                    code = codes.get(value)
                    if code is None:
                        code = len(self.values)
                        self.values.append(value)
                        codes[value] = code
            append(code)
        return array("q", out)

    def lookup(self, value: Any) -> int | None:
        """Return the code of ``value`` or None, without interning."""
        return self._codes.get(value)

    def decode(self, code: int) -> Any:
        return self.values[code]

    # -- Pickling (locks do not travel) --------------------------------------

    def __getstate__(self) -> list[Any]:
        return self.values

    def __setstate__(self, values: list[Any]) -> None:
        self.values = values
        self._codes = {value: code for code, value in enumerate(values)}
        self._lock = ordered_lock("columnar.dictionary")

    def __repr__(self) -> str:
        return f"ValueDictionary(values={len(self.values)})"


def snapshot_dictionary(database) -> ValueDictionary:
    """The shared per-snapshot dictionary, or a fresh one for plain dicts.

    Immutable snapshots memoize the dictionary under ``derived()``, so
    every execution against the same snapshot (and every relation's
    memoized columnar encoding) agrees on the codes.  A plain mutable
    mapping has no safe place to hang shared state, so it gets a private
    dictionary per call — correct, just without cross-execution reuse.
    """
    derived = getattr(database, "derived", None)
    if derived is not None:
        return derived(SNAPSHOT_DICTIONARY_KEY, lambda _: ValueDictionary())
    return ValueDictionary()


def decode_rows(columns: tuple[str, ...], rows, dictionary: ValueDictionary
                ) -> "Relation":
    """Decode a collection of distinct code tuples into a row relation."""
    from .relation import Relation
    values = dictionary.values
    if len(columns) == 2:
        # The common graph case: one pass beats the transposes below.
        decoded = frozenset((values[x], values[y]) for x, y in rows)
    else:
        decoded = frozenset(zip(*(map(values.__getitem__, column)
                                  for column in zip(*rows))))
    return Relation._from_trusted(columns, decoded)


class ColumnarRelation:
    """A relation as dictionary-encoded integer columns.

    The *storage* encoding of a relation: columns are aligned with the
    sorted schema, exactly like ``Relation`` rows, so adopting and
    releasing a relation never reorders anything.  It exists to be
    memoized (:meth:`Relation.columnar`) and to carry the indexes a
    fixpoint step probes (:meth:`index_on`), the columnar analogue of
    :class:`~repro.data.storage.HashIndex`; the step itself works on
    packed code tuples (:meth:`code_rows`).
    """

    __slots__ = ("columns", "arrays", "dictionary", "_key_index_cache")

    def __init__(self, columns: tuple[str, ...], arrays: list[array],
                 dictionary: ValueDictionary):
        self.columns = columns
        self.arrays = arrays
        self.dictionary = dictionary
        self._key_index_cache: dict[tuple, dict] | None = None

    @classmethod
    def from_relation(cls, relation: "Relation",
                      dictionary: ValueDictionary) -> "ColumnarRelation":
        """Encode a relation; the cost is reported as ``encode_ms``."""
        started = time.perf_counter()
        rows = relation.rows
        if rows:
            arrays = [dictionary.encode_column(column)
                      for column in zip(*rows)]
        else:
            arrays = [array("q") for _ in relation.columns]
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        get_registry().counter("repro_columnar_encode_ms_total").inc(elapsed_ms)
        return cls(relation.columns, arrays, dictionary)

    def __len__(self) -> int:
        return len(self.arrays[0]) if self.arrays else 0

    def code_rows(self) -> set[tuple[int, ...]]:
        """The rows as a new set of packed code tuples (schema order)."""
        return set(zip(*self.arrays))

    def to_relation(self) -> "Relation":
        """Decode back to a row relation."""
        return decode_rows(self.columns, zip(*self.arrays), self.dictionary)

    def index_on(self, positions: tuple[int, ...],
                 payload: tuple[int, ...] = ()) -> dict:
        """Key code -> matches, memoized per ``(positions, payload)``.

        Without ``payload`` a match is a row position, so the index
        answers membership (antijoins, semijoins).  With it a key maps
        to the tuple of its distinct payloads — the codes of the
        ``payload`` columns of every row carrying the key — which is all
        a fused join reads from the constant side: it never comes back
        to ``arrays``.  One-column keys and payloads are bare ``int``
        codes (the common case: graph joins are on one node column and
        keep one); wider ones are code tuples.
        """
        cache = self._key_index_cache
        if cache is None:
            cache = self._key_index_cache = {}
        index = cache.get((positions, payload))
        if index is None:
            index = cache[positions, payload] = self._build_index(positions,
                                                                  payload)
        return index

    def _build_index(self, positions: tuple[int, ...],
                     payload: tuple[int, ...]) -> dict:
        def cells(columns):
            if len(columns) == 1:
                return self.arrays[columns[0]]
            return zip(*(self.arrays[p] for p in columns))

        index: dict = {}
        matches = cells(payload) if payload else range(len(self))
        for key, match in zip(cells(positions), matches):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [match]
            else:
                bucket.append(match)
        if payload:
            # Rows are distinct, so payloads under one key are too unless
            # some column is neither key nor payload.
            distinct = len({*positions, *payload}) == len(self.arrays)
            for key, bucket in index.items():
                index[key] = tuple(bucket if distinct else set(bucket))
        return index

    def has_index(self, positions: tuple[int, ...],
                  payload: tuple[int, ...] = ()) -> bool:
        cache = self._key_index_cache
        return cache is not None and (positions, payload) in cache

    # -- Pickling (index caches are derived data) -----------------------------

    def __getstate__(self) -> tuple:
        return (self.columns, self.arrays, self.dictionary)

    def __setstate__(self, state: tuple) -> None:
        self.columns, self.arrays, self.dictionary = state
        self._key_index_cache = None

    def __repr__(self) -> str:
        return (f"ColumnarRelation(columns={list(self.columns)}, "
                f"rows={len(self)})")


class CodeRows:
    """A relation as a set of packed code tuples, in schema order.

    What a fixpoint holds from its seed to its result: a seed program's
    output, the chunks and partitions the distributed plans hand their
    tasks, a step's input.  The splits place every row exactly where
    :meth:`Relation.split_round_robin
    <repro.data.relation.Relation.split_round_robin>` and
    :meth:`Relation.split_by_columns
    <repro.data.relation.Relation.split_by_columns>` place its decoded
    row, so the representation never changes which task sees a row.
    """

    __slots__ = ("columns", "rows", "dictionary")

    def __init__(self, columns: tuple[str, ...], rows: set,
                 dictionary: ValueDictionary):
        self.columns = columns
        self.rows = rows
        self.dictionary = dictionary

    @classmethod
    def encode(cls, relation: "Relation",
               dictionary: ValueDictionary) -> "CodeRows":
        """``relation``'s rows, from its memoized encoding."""
        return cls(relation.columns,
                   relation.columnar(dictionary).code_rows(), dictionary)

    def __len__(self) -> int:
        return len(self.rows)

    def to_relation(self) -> "Relation":
        return decode_rows(self.columns, self.rows, self.dictionary)

    def code_groups(self, key: int) -> "CodeGroups":
        """A binary relation's rows grouped on column ``key``: each key
        code -> the set of codes the other column holds beside it."""
        groups = CodeGroups()
        get = groups.get
        other = 1 - key
        for row in self.rows:
            bucket = get(row[key])
            if bucket is None:
                groups[row[key]] = {row[other]}
            else:
                bucket.add(row[other])
        return groups

    def split_round_robin(self, parts: int) -> list["CodeRows"]:
        key = row_repr(self.dictionary, len(self.columns))
        return [CodeRows(self.columns, part, self.dictionary)
                for part in split_round_robin(self.rows, parts, key)]

    def split_by_columns(self, columns, parts: int) -> list["CodeRows"]:
        """Hash-partitioned on ``columns``: part ``hash(key values) %
        parts``, computed once per distinct key."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        positions = tuple(self.columns.index(c) for c in sorted(columns))
        extract = itemgetter(*positions)
        values = self.dictionary.values
        buckets: list[set] = [set() for _ in range(parts)]
        part_of: dict = {}
        for row in self.rows:
            key = extract(row)
            part = part_of.get(key)
            if part is None:
                decoded = ((values[key],) if len(positions) == 1
                           else tuple(map(values.__getitem__, key)))
                part = part_of[key] = hash(decoded) % parts
            buckets[part].add(row)
        return [CodeRows(self.columns, bucket, self.dictionary)
                for bucket in buckets]

    def __repr__(self) -> str:
        return f"CodeRows(columns={list(self.columns)}, rows={len(self)})"


def split_round_robin(rows, parts: int, key=repr) -> list[set]:
    """``rows`` dealt round robin over their order by ``key``: the split
    of :meth:`Relation.split_round_robin
    <repro.data.relation.Relation.split_round_robin>`, whose ``key`` is
    ``repr`` — on code tuples, :func:`row_repr` of their dictionary."""
    return [set(part)
            for part in deal_round_robin(sorted(rows, key=key), parts)]


class _ValueReprs(dict):
    """code -> ``repr`` of its value, computed on first use."""

    __slots__ = ("values",)

    def __missing__(self, code: int) -> str:
        text = self[code] = repr(self.values[code])
        return text


def row_repr(dictionary: ValueDictionary, arity: int):
    """``code tuple -> repr of the decoded row``, each code's ``repr``
    computed once per function: the canonical order of rows in code
    space."""
    reprs = _ValueReprs()
    reprs.values = dictionary.values
    if arity == 1:
        return lambda row: f"({reprs[row[0]]},)"
    if arity == 2:
        return lambda row: f"({reprs[row[0]]}, {reprs[row[1]]})"
    get = reprs.__getitem__
    return lambda row: "(" + ", ".join(map(get, row)) + ")"


class ColumnarDeltaAccumulator:
    """The columnar twin of :class:`~repro.data.storage.DeltaAccumulator`.

    Holds the growing fixpoint result as one set of packed code tuples —
    the representation the fused step consumes and produces, so
    ``absorb`` is a set difference and a set union, both inside the C set
    implementation, and the delta it returns is handed to the next step
    as it is.  This is the one place an iteration's output is
    deduplicated against the result.  ``relation`` decodes the
    accumulated set to a row ``Relation`` exactly once, at the end.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], seed: set[tuple[int, ...]]):
        self.columns = columns
        #: Everything absorbed so far, the seed included.
        self.rows = set(seed)

    def __len__(self) -> int:
        return len(self.rows)

    def absorb(self, produced: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
        """Fold one iteration's output in; return the genuinely new rows."""
        fresh = produced - self.rows
        self.rows |= fresh
        return fresh

    def relation(self, dictionary: ValueDictionary) -> "Relation":
        """Decode the accumulated result into a row relation, once."""
        return decode_rows(self.columns, self.rows, dictionary)


class CodeGroups(dict):
    """A binary relation factorized on one column, ``{key code: set of
    the other column's codes}``, whose ``len()`` counts rows, not keys:
    the semi-naive driver reads it exactly as it reads a flat set."""

    __slots__ = ()

    def __len__(self) -> int:
        return sum(map(len, self.values()))


class GroupedDeltaAccumulator:
    """:class:`ColumnarDeltaAccumulator` for a fixpoint grouped on its
    stable column (Section III-B), which keeps the seed's value in every
    derived row: a row is deduplicated against its key's set only, ``out
    -= seen[key]; seen[key] |= out``, and no tuple is built or hashed per
    derived row until :meth:`relation` decodes each key once."""

    __slots__ = ("columns", "key", "_seen")

    def __init__(self, columns: tuple[str, ...], key: int, seed: CodeGroups):
        self.columns = columns
        #: Position of the stable column in ``columns`` (0 or 1).
        self.key = key
        self._seen = CodeGroups({code: set(members)
                                 for code, members in seed.items()})

    def __len__(self) -> int:
        return len(self._seen)

    def absorb(self, produced: CodeGroups) -> CodeGroups:
        """Fold one step's output in (consuming its sets); return the
        genuinely new rows, keys without any left out."""
        seen = self._seen
        fresh = CodeGroups()
        for code, out in produced.items():
            known = seen[code]
            out -= known
            if out:
                known |= out
                fresh[code] = out
        return fresh

    def relation(self, dictionary: ValueDictionary) -> "Relation":
        """Decode the accumulated result into a row relation, once."""
        from .relation import Relation
        values = dictionary.values
        decode = values.__getitem__
        if self.key == 0:
            rows = (zip(repeat(values[code]), map(decode, members))
                    for code, members in self._seen.items())
        else:
            rows = (zip(map(decode, members), repeat(values[code]))
                    for code, members in self._seen.items())
        return Relation._from_trusted(self.columns,
                                      frozenset(chain.from_iterable(rows)))
