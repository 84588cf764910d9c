"""Structural pattern matching on graph-navigation terms.

The UCRPQ translator emits terms with a very regular shape: relational
composition is always ``antiproj_m(rho_trg->m(left) |><| rho_src->m(right))``
and transitive closures are fixpoints whose variable part is a composition
of the recursive variable with a step relation.  The fixpoint-specific
rewrite rules (reversal, join pushing, fixpoint merging) need to recognise
those shapes; this module centralises the matchers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.builders import LEFT_TO_RIGHT, RIGHT_TO_LEFT
from ..algebra.conditions import decompose
from ..algebra.terms import (AntiProject, Fixpoint, Join, Rename, RelVar,
                             Term, node_fact)
from ..algebra.variables import is_constant_in
from ..data.graph import SRC, TRG
from .normalize import canonicalize


@dataclass(frozen=True)
class ComposeShape:
    """A term of the form ``compose(left, right)`` over (src, trg) columns."""

    left: Term
    right: Term
    middle: str


@dataclass(frozen=True)
class ClosureShape:
    """A fixpoint whose variable part appends a step relation on one side.

    * ``direction == "left-to-right"`` means the variable part is
      ``compose(X, step)`` (the ``src`` column is stable),
    * ``direction == "right-to-left"`` means it is ``compose(step, X)``
      (the ``trg`` column is stable).

    ``seed`` is the constant part; the closure is *pure* when the seed and
    the step denote the same relation (that is the ``a+`` case, for which
    evaluation direction can be reversed).
    """

    fixpoint: Fixpoint
    var: str
    seed: Term
    step: Term
    direction: str
    is_pure: bool


def match_compose(term: Term, src: str = SRC, trg: str = TRG) -> ComposeShape | None:
    """Match ``antiproj_m(rho_trg->m(A) |><| rho_src->m(B))`` and return A, B."""
    if not isinstance(term, AntiProject) or len(term.columns) != 1:
        return None
    middle = term.columns[0]
    join = term.child
    if not isinstance(join, Join):
        return None
    for first, second in ((join.left, join.right), (join.right, join.left)):
        left = _match_rename_to(first, trg, middle)
        right = _match_rename_to(second, src, middle)
        if left is not None and right is not None:
            return ComposeShape(left=left, right=right, middle=middle)
    return None


@node_fact
def match_closure(fixpoint: Term) -> ClosureShape | None:
    """Match a fixpoint whose single variable branch composes X with a
    step; kept on the node, as the rules match a plan's closures again
    in every plan that shares them."""
    if not isinstance(fixpoint, Fixpoint):
        return None
    try:
        decomposition = decompose(fixpoint)
    except Exception:  # malformed fixpoints simply do not match
        return None
    if decomposition.variable_part is None:
        return None
    if len(decomposition.variable_branches) != 1:
        return None
    branch = decomposition.variable_branches[0]
    compose_shape = match_compose(branch)
    if compose_shape is None:
        return None
    var = fixpoint.var
    left_is_var = isinstance(compose_shape.left, RelVar) and compose_shape.left.name == var
    right_is_var = isinstance(compose_shape.right, RelVar) and compose_shape.right.name == var
    if left_is_var and not right_is_var:
        step = compose_shape.right
        direction = LEFT_TO_RIGHT
    elif right_is_var and not left_is_var:
        step = compose_shape.left
        direction = RIGHT_TO_LEFT
    else:
        return None
    if not is_constant_in(step, var):
        return None
    if not is_constant_in(decomposition.constant_part, var):
        return None
    seed = decomposition.constant_part
    return ClosureShape(
        fixpoint=fixpoint,
        var=var,
        seed=seed,
        step=step,
        direction=direction,
        is_pure=seed == step or canonicalize(seed) == canonicalize(step),
    )


def _match_rename_to(term: Term, old: str, new: str) -> Term | None:
    """Match ``rho_old->new(child)`` and return the child."""
    if isinstance(term, Rename) and term.old == old and term.new == new:
        return term.child
    return None
