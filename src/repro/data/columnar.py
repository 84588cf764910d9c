"""Columnar relation layout: dictionary-encoded ids in integer columns.

The row engine stores a relation as a frozenset of value tuples and pays a
per-row ``tuple(row[i] for i in ...)`` comprehension in every join, rename
and projection of every semi-naive iteration.  This module provides the
columnar substrate the execution kernels (:mod:`repro.algebra.kernels`)
run on instead:

* :class:`ValueDictionary` — an interning dictionary mapping arbitrary
  (hashable) node ids to small dense integers.  One dictionary is shared
  per snapshot (via :meth:`DatabaseSnapshot.derived
  <repro.data.snapshot.DatabaseSnapshot.derived>`), so every relation of
  one graph agrees on the codes and joins compare plain ``int``s.
* :class:`ColumnarRelation` — a relation as parallel :mod:`array`-module
  integer columns aligned with the sorted schema.  Adoption from a
  :class:`~repro.data.relation.Relation` is memoized on the relation
  object exactly like :meth:`Relation.index_on
  <repro.data.relation.Relation.index_on>` (see
  :meth:`Relation.columnar <repro.data.relation.Relation.columnar>`), so
  a loop-invariant relation is encoded once, not once per iteration.
* :class:`ColumnarBatch` — the transient column set kernels pass between
  operators; renames and projections on it are column-list permutations
  with no per-row work at all.
* :class:`ColumnarDeltaAccumulator` — the
  :class:`~repro.data.storage.DeltaAccumulator`-shaped delta path of the
  columnar fixpoint loop: dedup via packed code-tuple sets
  (``zip(*arrays)`` runs at C speed), one decode to a ``Relation`` at the
  very end.

A context-local escape hatch, :func:`row_mode`, pins the row engine (the
differential harness proves both engines agree) — results returned to
callers are plain ``Relation`` objects either way, so cache keys,
snapshots and maintained views never see codes.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterable
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any

from ..obs.metrics import get_registry
from ..check.sanitizer import ordered_lock

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


class ColumnarBatch:
    """A transient set of parallel code columns (kernels' working type)."""

    __slots__ = ("columns", "arrays")

    def __init__(self, columns: tuple[str, ...], arrays: list[array]):
        self.columns = columns
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.arrays[0]) if self.arrays else 0

    def __repr__(self) -> str:
        return f"ColumnarBatch(columns={list(self.columns)}, rows={len(self)})"


class ColumnarRelation:
    """A relation as dictionary-encoded integer columns.

    Columns are aligned with the sorted schema, exactly like ``Relation``
    rows, so adopting and releasing a relation never reorders anything.
    Key indexes (code -> row positions) are memoized per key layout, the
    columnar analogue of :class:`~repro.data.storage.HashIndex`.
    """

    __slots__ = ("columns", "arrays", "dictionary", "_key_index_cache")

    def __init__(self, columns: tuple[str, ...], arrays: list[array],
                 dictionary: ValueDictionary):
        self.columns = columns
        self.arrays = arrays
        self.dictionary = dictionary
        self._key_index_cache: dict[tuple[int, ...], dict] | None = None

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

    def batch(self) -> ColumnarBatch:
        """A zero-copy batch view over the same arrays."""
        return ColumnarBatch(self.columns, self.arrays)

    def to_relation(self) -> "Relation":
        """Decode back to a row relation (column-wise, mostly C speed)."""
        from .relation import Relation
        if not self.arrays or not len(self.arrays[0]):
            return Relation.empty(self.columns)
        values = self.dictionary.values
        if len(self.arrays) == 2:
            # The common graph case: one pass beats the transposes below.
            rows = frozenset((values[x], values[y])
                             for x, y in zip(*self.arrays))
        else:
            decoded = [tuple(map(values.__getitem__, column))
                       for column in self.arrays]
            rows = frozenset(zip(*decoded))
        return Relation._from_trusted(self.columns, rows)

    def index_on(self, positions: tuple[int, ...]) -> dict:
        """Code -> row-position index, memoized per key layout.

        Single-column keys map the bare ``int`` code (the common case:
        graph joins are on one node column); wider keys map code tuples.
        """
        cache = self._key_index_cache
        if cache is not None:
            index = cache.get(positions)
            if index is not None:
                return index
        index: dict = {}
        if len(positions) == 1:
            column = self.arrays[positions[0]]
            for row, code in enumerate(column):
                bucket = index.get(code)
                if bucket is None:
                    index[code] = [row]
                else:
                    bucket.append(row)
        else:
            key_columns = [self.arrays[p] for p in positions]
            for row, key in enumerate(zip(*key_columns)):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        if cache is None:
            cache = self._key_index_cache = {}
        cache[positions] = index
        return index

    def has_index(self, positions: tuple[int, ...]) -> bool:
        cache = self._key_index_cache
        return cache is not None and positions in cache

    # -- Pickling (index caches are derived data) -----------------------------

    def __getstate__(self) -> tuple:
        return (self.columns, self.arrays, self.dictionary)

    def __setstate__(self, state: tuple) -> None:
        self.columns, self.arrays, self.dictionary = state
        self._key_index_cache = None

    def __repr__(self) -> str:
        return (f"ColumnarRelation(columns={list(self.columns)}, "
                f"rows={len(self)})")


class ColumnarDeltaAccumulator:
    """The columnar twin of :class:`~repro.data.storage.DeltaAccumulator`.

    Maintains the growing fixpoint result as one set of packed code
    tuples.  ``absorb`` folds an iteration's output in and returns the
    genuinely-new delta as a batch; ``relation`` decodes the accumulated
    set to a row ``Relation`` exactly once, at the end.
    """

    __slots__ = ("columns", "_seen")

    def __init__(self, seed: ColumnarBatch):
        self.columns = seed.columns
        self._seen: set[tuple[int, ...]] = set(zip(*seed.arrays))

    def __len__(self) -> int:
        return len(self._seen)

    def absorb(self, produced: ColumnarBatch) -> ColumnarBatch:
        """Fold one iteration's output in; return the new delta batch.

        Set construction, difference and union all run inside the C set
        implementation — the only per-row Python here is the ``zip``
        transposes in and out of the packed representation.
        """
        fresh = set(zip(*produced.arrays))
        fresh -= self._seen
        if not fresh:
            return ColumnarBatch(self.columns,
                                 [array("q") for _ in self.columns])
        self._seen |= fresh
        return ColumnarBatch(self.columns,
                             [array("q", column) for column in zip(*fresh)])

    def relation(self, dictionary: ValueDictionary) -> "Relation":
        """Decode the accumulated result into a row relation, once."""
        from .relation import Relation
        if not self._seen:
            return Relation.empty(self.columns)
        values = dictionary.values
        if len(self.columns) == 2:
            # The common graph case: one pass beats the transposes below.
            rows = frozenset((values[x], values[y]) for x, y in self._seen)
        else:
            decoded = [tuple(map(values.__getitem__, column))
                       for column in zip(*self._seen)]
            rows = frozenset(zip(*decoded))
        return Relation._from_trusted(self.columns, rows)
