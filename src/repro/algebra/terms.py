"""Abstract syntax of mu-RA terms.

The grammar (Fig. 1 of the paper) is::

    phi ::= X                     relation variable
          | |c -> v|              constant relation
          | phi1 U phi2           union
          | phi1 |><| phi2        natural join
          | phi1 |> phi2          antijoin
          | sigma_f(phi)          filtering
          | rho_a^b(phi)          renaming
          | pi~_a(phi)            anti-projection (column dropping)
          | mu(X = Psi)           fixpoint

Terms are immutable, hashable dataclasses.  Every node exposes
:meth:`Term.children` and :meth:`Term.with_children` so that generic
traversals (rewriting, free-variable computation, printing) can be written
once in :mod:`repro.algebra.visitors`.

Planning visits each node many times, so what it reads of a node is
computed once and kept on the node (:func:`node_fact`): the structural
hash, built from the children's kept hashes, and the facts the analyses
derive from the children's facts — free variables, a fixpoint's
decomposition, the Fcond check, the names canonicalization reads, a
template's parameters, a plan's cache key.  Equality returns at once on
identity or on unequal hashes.  Equal terms stay distinct objects: there
is no intern table, which would cost a lock or a race per construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable

from ..data.predicates import Predicate
from ..data.relation import Relation
from ..errors import AlgebraError


_UNKNOWN = object()


def node_fact(compute):
    """Memoize ``compute(node)`` on the node: a fact derived from it.

    The value is kept in the node's ``__dict__`` beside its fields, not
    as one: eq, repr and ``dataclasses.replace`` never read it, pickling
    drops it, and concurrent first readers race benignly to equal
    values.  An exception is not kept.
    """
    name = "_" + compute.__name__.strip("_")

    def read(node):
        facts = node.__dict__
        value = facts.get(name, _UNKNOWN)
        if value is _UNKNOWN:
            value = facts[name] = compute(node)
        return value

    read.__name__, read.__doc__ = compute.__name__, compute.__doc__
    return read


class Term:
    """Base class of every mu-RA term."""

    @node_fact
    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __eq__(self, other: object) -> bool:
        """Structural equality; fields are compared only on equal hashes."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (hash(self) == hash(other)
                and self._compared(self) == other._compared(other))

    def __getstate__(self) -> dict:
        """The fields only: facts, the hash among them, are recomputed."""
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}

    def children(self) -> tuple["Term", ...]:
        """Return the direct sub-terms of this node."""
        raise NotImplementedError

    def with_children(self, children: tuple["Term", ...]) -> "Term":
        """Return a copy of this node with its sub-terms replaced."""
        raise NotImplementedError

    # Operator sugar ----------------------------------------------------------

    def union(self, other: "Term") -> "Union":
        return Union(self, other)

    def join(self, other: "Term") -> "Join":
        return Join(self, other)

    def antijoin(self, other: "Term") -> "Antijoin":
        return Antijoin(self, other)

    def filter(self, predicate: Predicate) -> "Filter":
        return Filter(predicate, self)

    def rename(self, old: str, new: str) -> "Rename":
        return Rename(old, new, self)

    def antiproject(self, columns: Iterable[str] | str) -> "AntiProject":
        return AntiProject(_as_columns(columns), self)

    def __str__(self) -> str:  # pragma: no cover - exercised via printer tests
        from .printer import term_to_string

        return term_to_string(self)


def _as_columns(columns: Iterable[str] | str) -> tuple[str, ...]:
    if isinstance(columns, str):
        return (columns,)
    return tuple(columns)


@dataclass(frozen=True, eq=False)
class RelVar(Term):
    """A relation variable: either a database relation or a recursive variable."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise AlgebraError("relation variable names must be non-empty")

    def children(self) -> tuple[Term, ...]:
        return ()

    def with_children(self, children: tuple[Term, ...]) -> Term:
        if children:
            raise AlgebraError("RelVar has no children")
        return self


@dataclass(frozen=True, eq=False)
class Literal(Term):
    """A constant relation embedded directly in the term (``|c -> v|``)."""

    relation: Relation
    name: str = "lit"

    def children(self) -> tuple[Term, ...]:
        return ()

    def with_children(self, children: tuple[Term, ...]) -> Term:
        if children:
            raise AlgebraError("Literal has no children")
        return self


@dataclass(frozen=True, eq=False)
class Union(Term):
    """Set union of two terms (duplicate-eliminating)."""

    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Term, ...]) -> Term:
        left, right = children
        return Union(left, right)


@dataclass(frozen=True, eq=False)
class Join(Term):
    """Natural join of two terms on their common columns."""

    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Term, ...]) -> Term:
        left, right = children
        return Join(left, right)


@dataclass(frozen=True, eq=False)
class Antijoin(Term):
    """Antijoin: tuples of the left with no natural-join partner on the right."""

    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Term, ...]) -> Term:
        left, right = children
        return Antijoin(left, right)


@dataclass(frozen=True, eq=False)
class Filter(Term):
    """Filtering (sigma): keep tuples satisfying a predicate."""

    predicate: Predicate
    child: Term

    def children(self) -> tuple[Term, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Term, ...]) -> Term:
        (child,) = children
        return Filter(self.predicate, child)


@dataclass(frozen=True, eq=False)
class Rename(Term):
    """Renaming (rho): rename column ``old`` into ``new``."""

    old: str
    new: str
    child: Term

    def children(self) -> tuple[Term, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Term, ...]) -> Term:
        (child,) = children
        return Rename(self.old, self.new, child)


@dataclass(frozen=True, eq=False)
class AntiProject(Term):
    """Anti-projection (pi-tilde): drop the given columns."""

    columns: tuple[str, ...]
    child: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise AlgebraError("AntiProject needs at least one column to drop")

    def children(self) -> tuple[Term, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Term, ...]) -> Term:
        (child,) = children
        return AntiProject(self.columns, child)


@dataclass(frozen=True, eq=False)
class Fixpoint(Term):
    """The recursive operator ``mu(X = body)``.

    ``var`` is the name of the recursive variable bound inside ``body``.
    """

    var: str
    body: Term
    # A purely informational tag used by the rewriter to remember whether the
    # fixpoint appends to the right or to the left (useful when printing and
    # when reasoning about reversals in tests).  It has no semantic effect.
    direction: str = field(default="left-to-right", compare=False)

    def __post_init__(self) -> None:
        if not self.var:
            raise AlgebraError("fixpoint variables must be non-empty strings")

    def children(self) -> tuple[Term, ...]:
        return (self.body,)

    def with_children(self, children: tuple[Term, ...]) -> Term:
        (body,) = children
        return Fixpoint(self.var, body, direction=self.direction)


#: All concrete node types, useful for completeness checks in tests.
NODE_TYPES = (
    RelVar,
    Literal,
    Union,
    Join,
    Antijoin,
    Filter,
    Rename,
    AntiProject,
    Fixpoint,
)

for _type in NODE_TYPES:
    # What eq and hash read: the compared fields' values, as a tuple.
    _names = [item.name for item in fields(_type) if item.compare]
    _type._compared = staticmethod(
        attrgetter(*_names) if len(_names) > 1 else
        lambda node, get=attrgetter(*_names): (get(node),))
