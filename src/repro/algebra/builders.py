"""Convenience constructors for common graph-shaped mu-RA terms.

Graph navigation terms follow a simple convention used throughout the
library (and in the paper's examples): a *path relation* is a binary
relation with columns ``src`` and ``trg``.  The helpers below build the
standard building blocks on top of that convention:

* :func:`compose` — relational composition of two path relations (a path of
  the left followed by a path of the right),
* :func:`closure` — the transitive closure ``a+`` as a fixpoint term,
  evaluated left-to-right or right-to-left,
* :func:`swap_src_trg` — edge inversion (the ``-label`` steps of UCRPQs),
* :func:`label_edges_from_facts` — selecting one predicate out of a triples
  table.

They are used by the UCRPQ translator (:mod:`repro.query.translate`), by
the workload definitions and extensively in tests.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from ..data.graph import PRED, SRC, TRG
from ..data.predicates import Eq
from .terms import Filter, Fixpoint, Rename, RelVar, Term, Union

#: Directions a transitive closure can be evaluated in.
LEFT_TO_RIGHT = "left-to-right"
RIGHT_TO_LEFT = "right-to-left"

_FRESH_COUNTER = itertools.count()


def fresh_column(stem: str = "_m") -> str:
    """Return a column name that cannot clash with user columns."""
    return f"{stem}{next(_FRESH_COUNTER)}"


def fresh_fixpoint_variable(stem: str = "X") -> str:
    """Return a fresh recursive-variable name."""
    return f"{stem}_{next(_FRESH_COUNTER)}"


def label_edges_from_facts(label: str, facts: str = "facts") -> Term:
    """Select one predicate's edges out of a (src, pred, trg) facts table."""
    filtered = Filter(Eq(PRED, label), RelVar(facts))
    return filtered.antiproject(PRED)


def swap_src_trg(term: Term, src: str = SRC, trg: str = TRG) -> Term:
    """Invert a path relation: swap its ``src`` and ``trg`` columns."""
    tmp = fresh_column("_swap")
    return term.rename(src, tmp).rename(trg, src).rename(tmp, trg)


def compose(left: Term, right: Term, src: str = SRC, trg: str = TRG,
            middle: str | None = None) -> Term:
    """Relational composition of two path relations.

    Returns the pairs ``(src, trg)`` such that there is a path of ``left``
    from ``src`` to some middle node followed by a path of ``right`` from
    that node to ``trg``.  This is the term of Example 1 of the paper::

        antiproj_m( rho_trg->m(left) |><| rho_src->m(right) )
    """
    middle = middle if middle is not None else fresh_column()
    left_renamed = Rename(trg, middle, left)
    right_renamed = Rename(src, middle, right)
    return left_renamed.join(right_renamed).antiproject(middle)


def closure(term: Term, direction: str = LEFT_TO_RIGHT,
            src: str = SRC, trg: str = TRG, var: str | None = None) -> Fixpoint:
    """Transitive closure ``term+`` as a fixpoint.

    ``direction`` selects how new paths are produced:

    * ``left-to-right``: ``mu(X = term U compose(X, term))`` — start from
      the base edges and append an edge on the right at every step.  The
      ``src`` column is stable.
    * ``right-to-left``: ``mu(X = term U compose(term, X))`` — prepend an
      edge on the left at every step.  The ``trg`` column is stable.

    Both forms compute the same relation; the rewriter's *reverse fixpoint*
    rule switches between them to enable filter/join pushing on either side.
    """
    var = var if var is not None else fresh_fixpoint_variable()
    recursive = RelVar(var)
    if direction == LEFT_TO_RIGHT:
        step = compose(recursive, term, src=src, trg=trg)
    elif direction == RIGHT_TO_LEFT:
        step = compose(term, recursive, src=src, trg=trg)
    else:
        raise ValueError(f"unknown closure direction {direction!r}")
    return Fixpoint(var, Union(term, step), direction=direction)


def closure_from_seed(seed: Term, step_edges: Term, direction: str = LEFT_TO_RIGHT,
                      src: str = SRC, trg: str = TRG,
                      var: str | None = None) -> Fixpoint:
    """Closure that starts from ``seed`` instead of the step edges themselves.

    ``mu(X = seed U compose(X, step_edges))`` (left-to-right) computes the
    pairs reachable by extending seed paths with step edges; this is the
    shape produced when filters or joins have been pushed inside a closure.
    """
    var = var if var is not None else fresh_fixpoint_variable()
    recursive = RelVar(var)
    if direction == LEFT_TO_RIGHT:
        step = compose(recursive, step_edges, src=src, trg=trg)
    elif direction == RIGHT_TO_LEFT:
        step = compose(step_edges, recursive, src=src, trg=trg)
    else:
        raise ValueError(f"unknown closure direction {direction!r}")
    return Fixpoint(var, Union(seed, step), direction=direction)


def filter_source(term: Term, value, src: str = SRC) -> Term:
    """Keep the pairs whose source is ``value`` (a constant node filter)."""
    return Filter(Eq(src, value), term)


def union_all(terms: Iterable[Term]) -> Term:
    """Union of one or more terms (left-leaning tree)."""
    terms = list(terms)
    if not terms:
        raise ValueError("union_all needs at least one term")
    result = terms[0]
    for term in terms[1:]:
        result = Union(result, term)
    return result


def concatenate_all(terms: Iterable[Term], src: str = SRC, trg: str = TRG) -> Term:
    """Concatenate (compose) a sequence of path relations left to right."""
    terms = list(terms)
    if not terms:
        raise ValueError("concatenate_all needs at least one term")
    result = terms[0]
    for term in terms[1:]:
        result = compose(result, term, src=src, trg=trg)
    return result
