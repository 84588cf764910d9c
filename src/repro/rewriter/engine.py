"""Plan-space exploration: the MuRewriter component.

Starting from one mu-RA term, the engine repeatedly applies every rewrite
rule at every position, collecting the semantically equivalent terms it
discovers.  Plans are identified up to canonical renaming of generated
column/variable names (see :mod:`repro.rewriter.normalize`), which keeps
the space finite and small in practice.

The exploration is breadth-first and bounded both in the number of rounds
and in the total number of plans, so it always terminates quickly even on
the largest workload queries (the paper reports on the order of 100
equivalent plans for the most complex Yago query).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from ..algebra.conditions import fcond_holds_throughout
from ..algebra.schema import Schema
from ..algebra.terms import Fixpoint, Term
from ..errors import EvaluationError, SchemaError
from .classic import classic_rules
from .fixpoint_rules import fixpoint_rules
from .normalize import canonicalize
from .rules import RewriteContext, RewriteRule

#: Default bound on the number of equivalent plans kept.
DEFAULT_MAX_PLANS = 64
#: Bound on the number of breadth-first rounds.
DEFAULT_MAX_ROUNDS = 8


def default_rules() -> list[RewriteRule]:
    """All rewrite rules, classic ones first."""
    return classic_rules() + fixpoint_rules()


class PlanSpace(list):
    """The explored plans, in discovery order, and ``fcond_dropped``: how
    many distinct variants were discarded for violating Fcond."""

    __slots__ = ("fcond_dropped",)


class MuRewriter:
    """Explore the space of plans equivalent to a mu-RA term."""

    def __init__(self, rules: Iterable[RewriteRule] | None = None,
                 max_plans: int = DEFAULT_MAX_PLANS):
        self.rules = list(rules) if rules is not None else default_rules()
        self.max_plans = max_plans

    # -- Public API -----------------------------------------------------------

    def explore(self, term: Term, base_schemas: Mapping[str, Schema]) -> PlanSpace:
        """Return the list of equivalent plans found, starting with ``term``.

        The first element is always the canonical form of the input term;
        the rest are listed in discovery order.
        """
        context = RewriteContext(base_schemas=base_schemas)
        initial = canonicalize(term)
        plans: dict[Term, None] = {initial: None}
        dropped: set[Term] = set()
        frontier = [initial]
        for _ in range(DEFAULT_MAX_ROUNDS):
            if not frontier or len(plans) >= self.max_plans:
                break
            next_frontier: list[Term] = []
            for plan in frontier:
                for variant in self._variants(plan, context):
                    canonical = canonicalize(variant)
                    if canonical in plans or canonical in dropped:
                        continue
                    if not fcond_holds_throughout(canonical):
                        dropped.add(canonical)
                        continue
                    plans[canonical] = None
                    next_frontier.append(canonical)
                    if len(plans) >= self.max_plans:
                        break
                if len(plans) >= self.max_plans:
                    break
            frontier = next_frontier
        space = PlanSpace(plans)
        space.fcond_dropped = len(dropped)
        return space

    def rewrites_at_root(self, term: Term,
                         base_schemas: Mapping[str, Schema]) -> list[Term]:
        """Apply every rule at the root only (used by targeted tests)."""
        context = RewriteContext(base_schemas=base_schemas)
        results = []
        for rule in self.rules:
            results.extend(rule.apply(term, context))
        return results

    # -- Exploration internals ------------------------------------------------

    def _variants(self, term: Term, context: RewriteContext) -> Iterator[Term]:
        """Yield terms obtained by one rewrite at any position of ``term``.

        A rule checks Fcond only where it applies: ``push-join-into-closure``
        inside ``mu(X0 = ...)`` puts ``X0`` into a nested closure's seed,
        making the two mutually recursive; :meth:`explore` drops that.
        """
        # Rewrites at the root.
        for rule in self.rules:
            yield from rule.apply(term, context)
        # Rewrites inside children, with the context extended when the
        # position is under a fixpoint binder.
        children = term.children()
        if not children:
            return
        child_context = context
        if isinstance(term, Fixpoint):
            child_context = self._context_inside_fixpoint(term, context)
        for index, child in enumerate(children):
            for new_child in self._variants(child, child_context):
                new_children = children[:index] + (new_child,) + children[index + 1:]
                yield term.with_children(new_children)

    @staticmethod
    def _context_inside_fixpoint(term: Fixpoint,
                                 context: RewriteContext) -> RewriteContext:
        try:
            schema = context.schema_of(term)
        except (SchemaError, EvaluationError):
            return context
        return context.child({term.var: schema})


def explore_plans(term: Term, base_schemas: Mapping[str, Schema],
                  max_plans: int = DEFAULT_MAX_PLANS) -> list[Term]:
    """Convenience wrapper around :meth:`MuRewriter.explore`."""
    rewriter = MuRewriter(max_plans=max_plans)
    return rewriter.explore(term, base_schemas)
