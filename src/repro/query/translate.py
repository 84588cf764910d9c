"""Query2Mu: translation of UCRPQ queries into mu-RA terms.

The translation follows the scheme sketched in the paper (Section IV):

* a regular path expression becomes a path term over columns
  ``(src, trg)`` — labels are relation variables, inverse labels use the
  ``-label`` relations exposed by :meth:`LabeledGraph.relations`,
  concatenation becomes relational composition, alternation becomes union
  and ``+`` becomes a transitive-closure fixpoint,
* each atom's endpoints then either constrain the term (constants become
  filters) or name its columns (variables become column names),
* the atoms of a conjunctive rule are combined with natural joins on their
  shared variables, and the non-head variables are dropped,
* the rules of a union query are combined with unions.

Every closure can be generated in two directions (left-to-right or
right-to-left); the translator emits the requested one, and the rewriter's
*reverse fixpoint* rule explores the other.  The paper relies on this pair
of plans to guarantee a stable column is always available for partitioning.
"""

from __future__ import annotations

from ..algebra.builders import (LEFT_TO_RIGHT, closure, compose, fresh_column,
                                union_all)
from ..algebra.terms import Filter, RelVar, Term
from ..data.graph import INVERSE_PREFIX, SRC, TRG
from ..data.predicates import ColumnEq, Eq
from ..errors import TranslationError
from .ast import (Alternation, Atom, Concat, ConjunctiveQuery, Constant,
                  Label, PathExpr, Plus, UCRPQ, Variable)


def translate_path(path: PathExpr, direction: str = LEFT_TO_RIGHT) -> Term:
    """Translate a regular path expression into a path term over (src, trg).

    Inverse steps reference the materialised ``-label`` relations that
    :meth:`LabeledGraph.relations` provides.
    """
    if isinstance(path, Label):
        if path.inverse:
            return RelVar(INVERSE_PREFIX + path.name)
        return RelVar(path.name)
    if isinstance(path, Concat):
        parts = [translate_path(part, direction) for part in path.parts]
        result = parts[0]
        for part in parts[1:]:
            result = compose(result, part)
        return result
    if isinstance(path, Alternation):
        options = [translate_path(option, direction)
                   for option in path.options]
        return union_all(options)
    if isinstance(path, Plus):
        inner = translate_path(path.inner, direction)
        return closure(inner, direction=direction)
    raise TranslationError(f"cannot translate path expression {path!r}")


def translate_atom(atom: Atom, direction: str = LEFT_TO_RIGHT) -> Term:
    """Translate one atom into a term whose columns are its variable names."""
    term = translate_path(atom.path, direction)
    term, source_column = _apply_endpoint(term, atom.subject, SRC)
    term, target_column = _apply_endpoint(term, atom.obj, TRG)
    if (isinstance(atom.subject, Variable) and isinstance(atom.obj, Variable)
            and atom.subject.name == atom.obj.name):
        # Same variable on both ends: keep the tuples where both coincide
        # and expose a single column.
        term = Filter(ColumnEq(source_column, target_column), term)
        term = term.antiproject(target_column)
        return _rename_columns(term, {source_column: atom.subject.name})
    renames: dict[str, str] = {}
    if source_column is not None and isinstance(atom.subject, Variable):
        renames[source_column] = atom.subject.name
    if target_column is not None and isinstance(atom.obj, Variable):
        renames[target_column] = atom.obj.name
    return _rename_columns(term, renames)


def translate_rule(rule: ConjunctiveQuery,
                   direction: str = LEFT_TO_RIGHT) -> Term:
    """Translate a conjunctive rule: join its atoms, keep the head columns."""
    atom_terms = [translate_atom(atom, direction) for atom in rule.atoms]
    term = atom_terms[0]
    for atom_term in atom_terms[1:]:
        term = term.join(atom_term)
    head_columns = {variable.name for variable in rule.head}
    body_columns = {variable.name for variable in rule.variables()}
    to_drop = sorted(body_columns - head_columns)
    if to_drop:
        term = term.antiproject(to_drop)
    return term


def translate_query(query: UCRPQ, direction: str = LEFT_TO_RIGHT) -> Term:
    """Translate a full UCRPQ into a mu-RA term.

    The resulting term's columns are the names of the head variables.
    """
    rules = [translate_rule(rule, direction) for rule in query.rules]
    return union_all(rules)


def output_columns(query: UCRPQ) -> tuple[str, ...]:
    """The (sorted) column names of the relation a query evaluates to."""
    return tuple(sorted(variable.name for variable in query.head))


# -- Internal helpers ----------------------------------------------------------


def _apply_endpoint(term: Term, endpoint, column: str) -> tuple[Term, str | None]:
    """Constrain or keep the endpoint column.

    Returns the (possibly filtered) term and the name of the column that now
    carries the endpoint value, or ``None`` when the endpoint was a constant
    (the column has been filtered and dropped).
    """
    if isinstance(endpoint, Constant):
        term = Filter(Eq(column, endpoint.value), term)
        term = term.antiproject(column)
        return term, None
    if isinstance(endpoint, Variable):
        return term, column
    raise TranslationError(f"unknown endpoint {endpoint!r}")


def _rename_columns(term: Term, renames: dict[str, str]) -> Term:
    """Apply several renames simultaneously.

    Every rename goes through a fresh temporary column so that swaps such as
    ``{src: trg, trg: src}`` (a query written ``?y ... ?x`` with ``y`` bound
    to the source) work without intermediate name clashes.
    """
    effective = {old: new for old, new in renames.items() if old != new}
    if not effective:
        return term
    temporaries: dict[str, str] = {}
    for old in effective:
        temporary = fresh_column("_v")
        term = term.rename(old, temporary)
        temporaries[old] = temporary
    for old, new in effective.items():
        term = term.rename(temporaries[old], new)
    return term
