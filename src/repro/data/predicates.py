"""Filter predicates for the sigma (selection) operator.

Predicates are small immutable expression trees evaluated against a row.
They expose:

* :meth:`Predicate.columns` — the set of columns they read, used by the
  rewriter (a filter can be pushed into a fixpoint only when it touches
  stable columns) and by the cost model (selectivity estimation),
* :meth:`Predicate.compile` — the one evaluator: a check bound to a
  schema, over the value tuples of a :class:`~repro.data.relation.Relation`
  or, given a :class:`~repro.data.columnar.ValueDictionary`, over the
  code tuples the fixpoint kernels step on,
* :meth:`Predicate.rename` — column renaming, needed when filters are moved
  across rename operators during rewriting.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import SchemaError

if TYPE_CHECKING:
    from .columnar import ValueDictionary

#: A compiled predicate: a test of one schema-aligned tuple.
Check = Callable[[tuple[Any, ...]], bool]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate:
    """Base class of all filter predicates."""

    def columns(self) -> frozenset[str]:
        """Return the set of column names referenced by the predicate."""
        raise NotImplementedError

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        """A check of the tuples aligned with ``schema``; None when the
        predicate always holds.

        The tuples hold values, or the codes of ``dictionary`` when one
        is given.  On codes an equality interns its constant and compares
        codes (a value absent from the data never matches), while an
        order comparison decodes: codes follow insertion order, not
        value order.
        """
        raise NotImplementedError

    def rename(self, old: str, new: str) -> "Predicate":
        """Return a copy of the predicate where column ``old`` is renamed."""
        raise NotImplementedError

    def _check_schema(self, schema: tuple[str, ...]) -> None:
        missing = self.columns() - set(schema)
        if missing:
            raise SchemaError(
                f"predicate references missing columns {sorted(missing)}; "
                f"schema is {list(schema)}"
            )

    # Convenience combinators ------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class Eq(Predicate):
    """``column == constant`` comparison (the most common graph filter)."""

    column: str
    value: Any

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        self._check_schema(schema)
        index = schema.index(self.column)
        value = self.value if dictionary is None \
            else dictionary.encode(self.value)
        return lambda row: row[index] == value

    def rename(self, old: str, new: str) -> "Predicate":
        if self.column == old:
            return Eq(new, self.value)
        return self

    def __repr__(self) -> str:
        return f"{self.column} == {self.value!r}"


@dataclass(frozen=True)
class Compare(Predicate):
    """``column <op> constant`` comparison for ``<, <=, >, >=, ==, !=``."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        self._check_schema(schema)
        index = schema.index(self.column)
        compare = _COMPARATORS[self.op]
        value = self.value
        if dictionary is not None:
            if self.op not in ("==", "!="):
                values = dictionary.values
                return lambda row: compare(values[row[index]], value)
            value = dictionary.encode(value)
        return lambda row: compare(row[index], value)

    def rename(self, old: str, new: str) -> "Predicate":
        if self.column == old:
            return Compare(new, self.op, self.value)
        return self

    def __repr__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class ColumnEq(Predicate):
    """``column == other_column`` comparison between two columns."""

    left: str
    right: str

    def columns(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        self._check_schema(schema)
        left = schema.index(self.left)
        right = schema.index(self.right)
        return lambda row: row[left] == row[right]

    def rename(self, old: str, new: str) -> "Predicate":
        left = new if self.left == old else self.left
        right = new if self.right == old else self.right
        return ColumnEq(left, right)

    def __repr__(self) -> str:
        return f"{self.left} == {self.right}"


@dataclass(frozen=True)
class In(Predicate):
    """``column IN constants`` membership test."""

    column: str
    values: frozenset

    def __init__(self, column: str, values) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", frozenset(values))

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        self._check_schema(schema)
        index = schema.index(self.column)
        values = self.values if dictionary is None \
            else frozenset(map(dictionary.encode, self.values))
        return lambda row: row[index] in values

    def rename(self, old: str, new: str) -> "Predicate":
        if self.column == old:
            return In(new, self.values)
        return self

    def __repr__(self) -> str:
        shown = sorted(self.values, key=repr)[:4]
        suffix = ", ..." if len(self.values) > 4 else ""
        return f"{self.column} in {{{', '.join(map(repr, shown))}{suffix}}}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two predicates."""

    left: Predicate
    right: Predicate

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        left = self.left.compile(schema, dictionary)
        right = self.right.compile(schema, dictionary)
        if left is None:
            return right
        if right is None:
            return left
        return lambda row: left(row) and right(row)

    def rename(self, old: str, new: str) -> "Predicate":
        return And(self.left.rename(old, new), self.right.rename(old, new))

    def __repr__(self) -> str:
        return f"({self.left!r} and {self.right!r})"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two predicates."""

    left: Predicate
    right: Predicate

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        left = self.left.compile(schema, dictionary)
        right = self.right.compile(schema, dictionary)
        if left is None or right is None:
            return None
        return lambda row: left(row) or right(row)

    def rename(self, old: str, new: str) -> "Predicate":
        return Or(self.left.rename(old, new), self.right.rename(old, new))

    def __repr__(self) -> str:
        return f"({self.left!r} or {self.right!r})"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    inner: Predicate

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        inner = self.inner.compile(schema, dictionary)
        if inner is None:
            return lambda row: False
        return lambda row: not inner(row)

    def rename(self, old: str, new: str) -> "Predicate":
        return Not(self.inner.rename(old, new))

    def __repr__(self) -> str:
        return f"(not {self.inner!r})"


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Predicate that always holds; the neutral element for conjunction."""

    def columns(self) -> frozenset[str]:
        return frozenset()

    def compile(self, schema: tuple[str, ...],
                dictionary: ValueDictionary | None = None) -> Check | None:
        """No check: the predicate always holds."""

    def rename(self, old: str, new: str) -> "Predicate":
        return self

    def __repr__(self) -> str:
        return "true"


def conjunction(predicates) -> Predicate:
    """Combine an iterable of predicates into a single conjunction.

    Returns :class:`TruePredicate` for an empty iterable.
    """
    combined: Predicate | None = None
    for predicate in predicates:
        combined = predicate if combined is None else And(combined, predicate)
    return combined if combined is not None else TruePredicate()
