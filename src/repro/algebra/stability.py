"""Stable-column analysis for fixpoint terms.

Section III-B of the paper defines a column ``c`` of ``mu(X = R U phi)`` as
*stable* when every tuple of the fixpoint keeps, at column ``c``, the value
of some tuple of ``R``: recursion never rewrites that column.  Stability is
what makes duplicate-free partitioned evaluation possible: hash-partitioning
the constant part on a stable column guarantees the per-partition local
fixpoints are pairwise disjoint, so the final distributed union does not
need to eliminate duplicates (and can even be skipped entirely).

The analysis implemented here is *static*: it tracks, through the variable
part ``phi``, which output columns are guaranteed to carry the value of the
same-named column of the recursive variable ``X``.  It is conservative
(sound but not complete): a column reported stable is always stable; a
stable column may occasionally be missed for exotic terms.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..errors import AlgebraError
from .conditions import Decomposition, decompose
from .schema import Schema, infer_schema
from .terms import (AntiProject, Antijoin, Filter, Fixpoint, Join, Literal,
                    Rename, RelVar, Term, Union)
from .variables import is_constant_in

#: Marker meaning "this column's value does not (provably) come from X".
OTHER = "__other__"


def stable_columns(fixpoint: Fixpoint,
                   base_schemas: Mapping[str, Schema],
                   env: Mapping[str, Schema] | None = None,
                   decomposition: Decomposition | None = None,
                   ) -> frozenset[str]:
    """Return the set of stable columns of a fixpoint term.

    ``base_schemas`` maps database relation names to schemas (as produced by
    :func:`repro.algebra.schema.schemas_of_database`).  A caller that
    already holds ``decompose(fixpoint)`` passes it as ``decomposition``.
    """
    if decomposition is None:
        decomposition = decompose(fixpoint)
    schema = infer_schema(fixpoint, base_schemas, env)
    if decomposition.variable_part is None:
        # No recursive branch: the fixpoint equals its constant part and
        # every column is trivially stable.
        return frozenset(schema)
    inner_env = dict(env or {})
    inner_env[fixpoint.var] = schema
    sources = _column_sources(decomposition.variable_part, fixpoint.var,
                              schema, base_schemas, inner_env)
    return frozenset(column for column in schema if sources.get(column) == column)


def has_stable_column(fixpoint: Fixpoint,
                      base_schemas: Mapping[str, Schema],
                      env: Mapping[str, Schema] | None = None) -> bool:
    """True when the fixpoint has at least one stable column."""
    return bool(stable_columns(fixpoint, base_schemas, env))


def _column_sources(term: Term, var: str, x_schema: Schema,
                    schemas: Mapping[str, Schema],
                    env: dict[str, Schema]) -> dict[str, str]:
    """Map each output column of ``term`` to the X column it provably carries.

    The returned dictionary maps every column of ``term``'s schema either to
    a column name of ``X`` (meaning: the value at this output column always
    equals the value of that ``X`` column in the recursive input tuple) or
    to :data:`OTHER`.
    """
    if isinstance(term, RelVar):
        if term.name == var:
            return {column: column for column in x_schema}
        return _all_other(infer_schema(term, schemas, env))
    if isinstance(term, Literal):
        return _all_other(term.relation.columns)
    if isinstance(term, Filter):
        return _column_sources(term.child, var, x_schema, schemas, env)
    if isinstance(term, Rename):
        child = _column_sources(term.child, var, x_schema, schemas, env)
        result = {}
        for column, source in child.items():
            result[term.new if column == term.old else column] = source
        return result
    if isinstance(term, AntiProject):
        child = _column_sources(term.child, var, x_schema, schemas, env)
        dropped = set(term.columns)
        return {column: source for column, source in child.items()
                if column not in dropped}
    if isinstance(term, Union):
        return _union_sources(term, var, x_schema, schemas, env)
    if isinstance(term, Join):
        return _join_sources(term, var, x_schema, schemas, env)
    if isinstance(term, Antijoin):
        # The antijoin keeps left tuples unchanged (positivity guarantees the
        # right side is constant in X).
        return _column_sources(term.left, var, x_schema, schemas, env)
    if isinstance(term, Fixpoint):
        # Nested fixpoints binding another variable are constant in X by the
        # non-mutual-recursion condition; be conservative either way.
        return _all_other(infer_schema(term, schemas, env))
    raise AlgebraError(f"unknown term type {type(term).__name__} in stability analysis")


def _union_sources(term: Union, var: str, x_schema: Schema,
                   schemas: Mapping[str, Schema],
                   env: dict[str, Schema]) -> dict[str, str]:
    """A column is stable across a union only if both branches preserve it.

    A branch constant in ``var`` produces tuples whose columns do not come
    from ``X`` at all, so such a branch forces every column to OTHER.
    """
    branches = (term.left, term.right)
    branch_sources = []
    for branch in branches:
        if is_constant_in(branch, var):
            branch_sources.append(_all_other(infer_schema(branch, schemas, env)))
        else:
            branch_sources.append(
                _column_sources(branch, var, x_schema, schemas, env))
    left, right = branch_sources
    result = {}
    for column in set(left) | set(right):
        left_source = left.get(column, OTHER)
        right_source = right.get(column, OTHER)
        result[column] = left_source if left_source == right_source else OTHER
    return result


def _join_sources(term: Join, var: str, x_schema: Schema,
                  schemas: Mapping[str, Schema],
                  env: dict[str, Schema]) -> dict[str, str]:
    """Join: columns of the recursive side keep their provenance.

    Columns shared with the constant side are equal on both sides in every
    joined tuple, so they inherit the recursive side's provenance as well.
    Columns only present on the constant side are OTHER.
    """
    left_constant = is_constant_in(term.left, var)
    right_constant = is_constant_in(term.right, var)
    if left_constant and right_constant:
        return _all_other(infer_schema(term, schemas, env))
    if not left_constant and not right_constant:
        # Non-linear join; the analysis only runs on Fcond-satisfying terms,
        # but stay conservative rather than crash.
        return _all_other(infer_schema(term, schemas, env))
    recursive_side = term.right if left_constant else term.left
    constant_side = term.left if left_constant else term.right
    recursive_sources = _column_sources(recursive_side, var, x_schema, schemas, env)
    constant_schema = infer_schema(constant_side, schemas, env)
    result = dict(recursive_sources)
    for column in constant_schema:
        if column not in result:
            result[column] = OTHER
    return result


def _all_other(schema: Schema) -> dict[str, str]:
    return {column: OTHER for column in schema}
