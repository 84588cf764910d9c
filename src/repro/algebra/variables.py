"""Free variables, boundness, constancy and substitution for mu-RA terms.

These notions follow Section II of the paper:

* a relation variable ``X`` is *free* unless it appears under a binding
  fixpoint ``mu(X = ...)``,
* a term is *constant in X* when ``X`` does not occur free in it,
* substitution replaces free occurrences of a variable by another term
  (typically a :class:`~repro.algebra.terms.Literal` holding a concrete
  relation), which is how the fixpoint semantics is defined.
"""

from __future__ import annotations

from ..errors import AlgebraError
from .terms import Fixpoint, Literal, RelVar, Term, node_fact
from .visitors import rebuild


@node_fact
def free_variables(term: Term) -> frozenset[str]:
    """Return the names of the relation variables occurring free in ``term``."""
    if isinstance(term, RelVar):
        return frozenset({term.name})
    if isinstance(term, Literal):
        return frozenset()
    if isinstance(term, Fixpoint):
        return free_variables(term.body) - {term.var}
    names: frozenset[str] = frozenset()
    for child in term.children():
        names |= free_variables(child)
    return names


def is_constant_in(term: Term, var: str) -> bool:
    """True when ``term`` is constant in ``var`` (``var`` not free in it)."""
    return var not in free_variables(term)


def occurs(term: Term, var: str) -> bool:
    """True when ``var`` occurs free in ``term`` (the negation of constancy)."""
    return var in free_variables(term)


def substitute(term: Term, var: str, replacement: Term) -> Term:
    """Replace every free occurrence of ``var`` in ``term`` by ``replacement``.

    Substitution is capture-avoiding in the simple sense needed here: it does
    not descend below a fixpoint that re-binds ``var``.  If the replacement
    itself contains variables that would be captured by an enclosing binder,
    an :class:`~repro.errors.AlgebraError` is raised — the library never
    generates such terms, but user-built terms might.
    """
    if var not in free_variables(term):
        # Nothing to substitute: leave the subtree untouched (below a
        # binder, this also avoids spurious capture errors).
        return term
    if isinstance(term, RelVar):
        return replacement
    if isinstance(term, Fixpoint):
        if term.var in free_variables(replacement):
            raise AlgebraError(
                f"substituting {var!r} would capture variable {term.var!r}; "
                f"rename the inner fixpoint variable first"
            )
        return Fixpoint(term.var, substitute(term.body, var, replacement),
                        direction=term.direction)
    return rebuild(term, tuple(substitute(child, var, replacement)
                               for child in term.children()))
