"""Free variables and constancy for mu-RA terms.

These notions follow Section II of the paper:

* a relation variable ``X`` is *free* unless it appears under a binding
  fixpoint ``mu(X = ...)``,
* a term is *constant in X* when ``X`` does not occur free in it.
"""

from __future__ import annotations

from .terms import Fixpoint, Literal, RelVar, Term, node_fact


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
