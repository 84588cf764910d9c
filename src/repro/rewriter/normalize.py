"""Canonical normalization of terms for plan-space deduplication.

The term builders generate *fresh* internal column names (``_m12``) and
fresh fixpoint variable names (``X_7``) so that independently built terms
never clash.  The downside is that two syntactically identical plans built
at different times differ in those generated names, which would make the
plan-space exploration believe they are different plans (and explode).

:func:`canonicalize` renames, deterministically and consistently:

* every generated column name (any name starting with ``_``) to ``_n0``,
  ``_n1``, ... in pre-order first-encounter order, and
* every fixpoint variable to ``%X0``, ``%X1``, ... in pre-order.

Two plans that differ only by generated names therefore normalise to the
same term, which is what the engine uses as the plan identity.  It is one
pre-order pass that returns a subtree as it is, without walking it, when
the subtree is canonical already where it stands: the names it binds and
uses, read from facts kept on its nodes (:func:`_names`), need no change.

:func:`cache_key` turns that identity into a *stable string*: because the
canonical form erases every session-specific generated name, the same query
translated in two different sessions (or twice in one session, with the
fresh-name counters at different positions) maps to the same key.  The
serving layer's plan and result caches are keyed on it.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..algebra.printer import term_to_string
from ..algebra.terms import (AntiProject, Filter, Fixpoint, Rename, RelVar,
                             Term, node_fact)
from ..algebra.variables import free_variables
from ..algebra.visitors import rebuild

#: Prefix identifying machine-generated column names.
GENERATED_COLUMN_PREFIX = "_"
#: Prefix used for canonical fixpoint variable names.
CANONICAL_VARIABLE_PREFIX = "%X"


def canonicalize(term: Term) -> Term:
    """Return the canonical form of ``term`` (see module docstring)."""
    generated = [column for column in _names(term)[1]
                 if column.startswith(GENERATED_COLUMN_PREFIX)]
    columns = {old: new for old, new in
               ((old, f"_n{index}") for index, old in enumerate(generated))
               if old != new}
    position = 0

    def visit(node: Term, variables: dict[str, str]) -> Term:
        """``node`` renamed; ``variables`` maps the fixpoint variables
        bound above it to their canonical names (where they differ)."""
        nonlocal position
        bound, named = _names(node)
        if (columns.keys().isdisjoint(named)
                and variables.keys().isdisjoint(free_variables(node))
                and bound == _canonical_variables(position, len(bound))):
            # Canonical where it stands: no name below it changes.
            position += len(bound)
            return node
        if isinstance(node, RelVar):
            return RelVar(variables[node.name])
        if isinstance(node, Fixpoint):
            canonical = f"{CANONICAL_VARIABLE_PREFIX}{position}"
            position += 1
            inner = {name: new for name, new
                     in {**variables, node.var: canonical}.items()
                     if name != new}
            return Fixpoint(canonical, visit(node.body, inner),
                            direction=node.direction)
        node = rebuild(node, tuple(visit(child, variables)
                                   for child in node.children()))
        return _rename_own_columns(node, columns)

    return visit(term, {})


def cache_key(term: Term) -> str:
    """Return a stable string identity of ``term`` for caching.

    The key is the printed canonical form: independent of the state of the
    fresh-name counters, of the session, and of ``PYTHONHASHSEED`` (it is a
    plain string, not a hash), so it can safely key caches that outlive a
    session or are shared between sessions.
    """
    return term_to_string(canonicalize(term))


def _canonical_variables(start: int, count: int) -> tuple[str, ...]:
    return tuple(f"{CANONICAL_VARIABLE_PREFIX}{index}"
                 for index in range(start, start + count))


@node_fact
def _names(node: Term) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The variables the fixpoints of ``node`` bind, in pre-order, and the
    columns its operators name, in pre-order of first use."""
    variables = (node.var,) if isinstance(node, Fixpoint) else ()
    columns = dict.fromkeys(_own_columns(node))
    for child in node.children():
        child_variables, child_columns = _names(child)
        variables += child_variables
        columns.update(dict.fromkeys(child_columns))
    return variables, tuple(columns)


def _own_columns(node: Term) -> list[str] | tuple[str, ...]:
    if isinstance(node, Rename):
        return [node.old, node.new]
    if isinstance(node, AntiProject):
        return node.columns
    if isinstance(node, Filter):
        return sorted(node.predicate.columns())
    return ()


def _rename_own_columns(node: Term, mapping: Mapping[str, str]) -> Term:
    """``node`` with ``mapping`` applied to the columns its own operator
    names; ``node`` itself when it names none of them."""
    if mapping.keys().isdisjoint(_own_columns(node)):
        return node

    def rename(column: str) -> str:
        return mapping.get(column, column)

    if isinstance(node, Rename):
        return Rename(rename(node.old), rename(node.new), node.child)
    if isinstance(node, AntiProject):
        return AntiProject(tuple(map(rename, node.columns)), node.child)
    # A filter: apply the mapping simultaneously (it may contain swaps): go
    # through unique temporaries so sequential renames cannot chain.
    predicate = node.predicate
    temporaries = {old: f"__tmp_subst_{index}__"
                   for index, old in enumerate(mapping)}
    for old, temporary in temporaries.items():
        predicate = predicate.rename(old, temporary)
    for old, new in mapping.items():
        predicate = predicate.rename(temporaries[old], new)
    return Filter(predicate, node.child)
