"""Parameter sentinels and plan binding for prepared queries.

A prepared query is planned **once** on a *template term* in which every
value placeholder is a :class:`Parameter` sentinel instead of a concrete
constant.  This is sound because the cost model's equality selectivity is
value-independent (``1 / distinct(column)`` whatever the constant), so the
plan selected for the sentinel is the plan that would have been selected
for any binding.  At bind time, :func:`bind_plan` substitutes the concrete
values into the *selected* plan — a cheap tree rewrite — instead of
re-running the rewriter and the cost ranking.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

from ..algebra.conditions import union_of
from ..algebra.terms import Filter, Term, node_fact
from ..algebra.visitors import rebuild
from ..data.predicates import (And, Compare, Eq, In, Not, Or, Predicate)
from ..distributed.partitioner import FixpointAnalysis
from ..errors import TranslationError
from ..service.plan_cache import CachedPlan

#: Placeholder identifiers start with a colon: ``:name`` (legal in the
#: UCRPQ identifier syntax, so templates parse with the ordinary parser).
PARAMETER_PREFIX = ":"


@dataclass(frozen=True)
class Parameter:
    """Sentinel standing for an unbound parameter value inside a term.

    Its printed form deliberately cannot be produced by the UCRPQ parser
    (identifiers cannot contain spaces or angle brackets), so a template's
    cache key can never collide with a concrete query's.
    """

    name: str

    def __repr__(self) -> str:
        return f"<param {self.name}>"

    __str__ = __repr__


@node_fact
def parameters_of(term: Term) -> frozenset[str]:
    """Names of the :class:`Parameter` sentinels occurring in ``term``,
    kept on the node (:func:`~repro.algebra.terms.node_fact`)."""
    names: set[str] = set()
    if isinstance(term, Filter):
        _collect_predicate_parameters(term.predicate, names)
    return frozenset(names).union(*map(parameters_of, term.children()))


def substitute_parameters(term: Term, values: Mapping[str, object]) -> Term:
    """Replace every :class:`Parameter` sentinel in filter predicates.

    Raises :class:`~repro.errors.TranslationError` if the term mentions a
    parameter that ``values`` does not bind.  A subterm without a
    parameter comes back as the same object, without a walk.
    """
    if not parameters_of(term):
        return term
    term = rebuild(term, tuple(substitute_parameters(child, values)
                               for child in term.children()))
    if isinstance(term, Filter):
        predicate = _substitute_predicate(term.predicate, values)
        if predicate is not term.predicate:
            term = Filter(predicate, term.child)
    return term


def bind_plan(plan: CachedPlan, values: Mapping[str, object]) -> CachedPlan:
    """Specialize a cached template plan to one parameter binding.

    The bound plan keeps the template's cost and exploration counters (the
    whole point is that they were paid once) and derives its result-cache
    identity from the template key plus the binding, so different bindings
    never share a memoized result.  It shares the template's compiled
    kernels, and gets the template's fixpoint analysis with the binding
    substituted in (see :func:`_bind_analysis`).
    """
    if not values:
        return plan
    concrete = substitute_parameters(plan.term, values)
    analysis = plan.analysis
    if analysis is not None:
        analysis = tuple(_bind_analysis(fixpoint, values)
                         for fixpoint in analysis)
    binding = ", ".join(f"{name}={values[name]!r}" for name in sorted(values))
    return replace(plan, term=concrete, analysis=analysis,
                   term_key=f"{plan.term_key} @ [{binding}]")


def _bind_analysis(analysis: FixpointAnalysis,
                   values: Mapping[str, object]) -> FixpointAnalysis:
    """The template's fixpoint analysis, specialized to one binding.

    A constant changes neither which union branches mention the
    recursive variable nor any schema, so the bound fixpoint decomposes
    into the template's branches with the binding substituted, and its
    partitioning is the template's.  A part whose branches hold no
    parameter is kept as is (the same object the kernel cache keys on).
    """
    decomposition = analysis.decomposition
    changes: dict[str, object] = {}
    for part in ("constant", "variable"):
        branches = getattr(decomposition, f"{part}_branches")
        bound = tuple(substitute_parameters(branch, values)
                      for branch in branches)
        if any(new is not old for new, old in zip(bound, branches)):
            changes[f"{part}_branches"] = bound
            changes[f"{part}_part"] = union_of(list(bound))
    if not changes:
        return analysis
    return replace(analysis, decomposition=replace(decomposition, **changes))


def _substitute_predicate(predicate: Predicate,
                          values: Mapping[str, object]) -> Predicate:
    """``predicate`` with its parameters bound; itself when it has none."""
    if isinstance(predicate, Eq):
        value = _resolve(predicate.value, values)
        return (predicate if value is predicate.value
                else Eq(predicate.column, value))
    if isinstance(predicate, Compare):
        value = _resolve(predicate.value, values)
        return (predicate if value is predicate.value
                else Compare(predicate.column, predicate.op, value))
    if isinstance(predicate, In):
        if not any(isinstance(value, Parameter) for value in predicate.values):
            return predicate
        return In(predicate.column,
                  {_resolve(value, values) for value in predicate.values})
    if isinstance(predicate, (And, Or)):
        left = _substitute_predicate(predicate.left, values)
        right = _substitute_predicate(predicate.right, values)
        if left is predicate.left and right is predicate.right:
            return predicate
        return type(predicate)(left, right)
    if isinstance(predicate, Not):
        inner = _substitute_predicate(predicate.inner, values)
        return predicate if inner is predicate.inner else Not(inner)
    return predicate


def _resolve(value: object, values: Mapping[str, object]) -> object:
    if isinstance(value, Parameter):
        if value.name not in values:
            raise TranslationError(
                f"unbound parameter :{value.name}; bind() every parameter "
                f"before executing")
        return values[value.name]
    return value


def _collect_predicate_parameters(predicate: Predicate, names: set[str]) -> None:
    if isinstance(predicate, (Eq, Compare)):
        if isinstance(predicate.value, Parameter):
            names.add(predicate.value.name)
    elif isinstance(predicate, In):
        names.update(value.name for value in predicate.values
                     if isinstance(value, Parameter))
    elif isinstance(predicate, (And, Or)):
        _collect_predicate_parameters(predicate.left, names)
        _collect_predicate_parameters(predicate.right, names)
    elif isinstance(predicate, Not):
        _collect_predicate_parameters(predicate.inner, names)
