"""Fixpoint conditions (Fcond) and decomposition of fixpoint terms.

Definition 1 of the paper requires a fixpoint ``mu(X = Psi)`` to be:

* **positive** — for every antijoin sub-term ``phi1 |> phi2`` of ``Psi``,
  ``phi2`` is constant in ``X``;
* **linear** — for every join or antijoin sub-term, at least one operand is
  constant in ``X``;
* **non mutually recursive** — ``X`` does not occur free in the body of a
  nested fixpoint binding another variable.

Proposition 2 then guarantees such a fixpoint can be written as
``mu(X = R U phi)`` where ``R`` (the *constant part*) is constant in ``X``
and ``phi`` (the *variable part*) satisfies ``phi(empty) = empty``.  The
:func:`decompose` function computes that form; it is the basis of the
semi-naive evaluation, of the fixpoint-splitting parallelisation
(Proposition 3) and of the stable-column partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FixpointConditionError
from .terms import Antijoin, Fixpoint, Join, RelVar, Term, Union
from .variables import is_constant_in
from .visitors import walk


def is_positive(fixpoint: Fixpoint) -> bool:
    """Check the positivity condition of Definition 1."""
    var = fixpoint.var
    for node in walk(fixpoint.body):
        if isinstance(node, Antijoin) and not is_constant_in(node.right, var):
            return False
    return True


def is_linear(fixpoint: Fixpoint) -> bool:
    """Check the linearity condition of Definition 1."""
    var = fixpoint.var
    for node in walk(fixpoint.body):
        if isinstance(node, (Join, Antijoin)):
            left_constant = is_constant_in(node.left, var)
            right_constant = is_constant_in(node.right, var)
            if not (left_constant or right_constant):
                return False
    return True


def is_non_mutually_recursive(fixpoint: Fixpoint) -> bool:
    """Check the non-mutual-recursion condition of Definition 1."""
    var = fixpoint.var
    for node in walk(fixpoint.body):
        if isinstance(node, Fixpoint) and node.var != var:
            if not is_constant_in(node.body, var):
                return False
    return True


def satisfies_fcond(fixpoint: Fixpoint) -> bool:
    """True when the fixpoint satisfies all three Fcond conditions."""
    return (is_positive(fixpoint)
            and is_linear(fixpoint)
            and is_non_mutually_recursive(fixpoint))


def fcond_holds_throughout(term: Term) -> bool:
    """:func:`satisfies_fcond` on every fixpoint inside ``term`` (binding
    distinct variables, as in every canonical plan), in one bottom-up
    pass: cheap enough for every plan the rewriter explores."""
    return _free_and_breaking(term) is not None


_NOTHING: frozenset[str] = frozenset()


def _free_and_breaking(term: Term):
    """``(free, breaking)``: the free variables of ``term`` and those on
    which a binding fixpoint would break Fcond (free on both sides of a
    join, right of an antijoin, in a nested fixpoint's body), or None."""
    children = term.children()
    if not children:
        return (frozenset((term.name,)) if isinstance(term, RelVar)
                else _NOTHING), _NOTHING
    if len(children) == 1:
        inner = _free_and_breaking(children[0])
        if inner is None or not isinstance(term, Fixpoint):
            return inner
        free, breaking = inner
        if term.var in breaking:
            return None
        free = free - {term.var}
        return free, (breaking - {term.var}) | free
    left, right = map(_free_and_breaking, children)
    if left is None or right is None:
        return None
    breaking = left[1] | right[1]
    if isinstance(term, Join):
        breaking |= left[0] & right[0]
    elif isinstance(term, Antijoin):
        breaking |= right[0]
    return left[0] | right[0], breaking


def check_fcond(fixpoint: Fixpoint) -> None:
    """Raise :class:`FixpointConditionError` describing the violated condition."""
    if not is_positive(fixpoint):
        raise FixpointConditionError(
            f"fixpoint on {fixpoint.var!r} is not positive: the recursive "
            f"variable occurs on the right of an antijoin"
        )
    if not is_linear(fixpoint):
        raise FixpointConditionError(
            f"fixpoint on {fixpoint.var!r} is not linear: the recursive "
            f"variable occurs on both sides of a join or antijoin"
        )
    if not is_non_mutually_recursive(fixpoint):
        raise FixpointConditionError(
            f"fixpoint on {fixpoint.var!r} is mutually recursive with a "
            f"nested fixpoint"
        )


def flatten_union(term: Term) -> list[Term]:
    """Flatten a tree of unions into the list of its non-union branches."""
    if isinstance(term, Union):
        return flatten_union(term.left) + flatten_union(term.right)
    return [term]


def union_of(branches: list[Term]) -> Term:
    """Rebuild a (left-leaning) union term from a non-empty branch list."""
    if not branches:
        raise FixpointConditionError("cannot build a union of zero branches")
    result = branches[0]
    for branch in branches[1:]:
        result = Union(result, branch)
    return result


@dataclass(frozen=True)
class Decomposition:
    """The ``mu(X = R U phi)`` form of a fixpoint term.

    ``constant_part`` is ``R`` (never ``None``: Proposition 2 guarantees a
    constant part exists for a useful fixpoint; a fixpoint without one is
    empty and rejected).  ``variable_part`` is ``phi`` or ``None`` when the
    body has no recursive branch (the fixpoint is then just ``R``).
    """

    var: str
    constant_part: Term
    variable_part: Term | None
    constant_branches: tuple[Term, ...]
    variable_branches: tuple[Term, ...]
    direction: str = "left-to-right"

    def rebuild(self, constant_part: Term | None = None) -> Fixpoint:
        """Rebuild a fixpoint term, optionally replacing the constant part.

        This is the primitive behind fixpoint splitting: the distributed
        runtime rebuilds ``mu(X = Ri U phi)`` for every partition ``Ri`` of
        the original constant part.
        """
        constant = constant_part if constant_part is not None else self.constant_part
        branches = [constant] + list(self.variable_branches)
        return Fixpoint(self.var, union_of(branches), direction=self.direction)


def decompose(fixpoint: Fixpoint) -> Decomposition:
    """Decompose a fixpoint satisfying Fcond into constant and variable parts."""
    check_fcond(fixpoint)
    var = fixpoint.var
    branches = flatten_union(fixpoint.body)
    constant_branches = [b for b in branches if is_constant_in(b, var)]
    variable_branches = [b for b in branches if not is_constant_in(b, var)]
    if not constant_branches:
        raise FixpointConditionError(
            f"fixpoint on {var!r} has no constant part: its least fixpoint "
            f"is empty and it cannot be decomposed as mu(X = R U phi)"
        )
    constant_part = union_of(constant_branches)
    variable_part = union_of(variable_branches) if variable_branches else None
    return Decomposition(
        var=var,
        constant_part=constant_part,
        variable_part=variable_part,
        constant_branches=tuple(constant_branches),
        variable_branches=tuple(variable_branches),
        direction=fixpoint.direction,
    )
