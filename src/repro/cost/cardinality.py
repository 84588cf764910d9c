"""Cardinality estimation for mu-RA terms.

The estimator follows the classic System-R recipe for the non-recursive
operators (equality selectivity ``1/V``, join size ``|L|.|R| / max(V)``)
and the logarithm-based technique of the Dist-mu-RA cost model for
fixpoints: the growth of the recursion is simulated on the *estimates*
themselves, iterating at most ``log2(domain)`` times, which is the expected
convergence depth of a reachability-style fixpoint.

Estimates are represented with :class:`repro.data.stats.RelationStats`
(cardinality plus per-column distinct counts) so that they compose through
the operators.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from ..data.predicates import (And, ColumnEq, Compare, Eq, In, Not, Or,
                               Predicate, TruePredicate)
from ..data.stats import RelationStats, StatisticsCatalog
from ..errors import CostEstimationError
from ..algebra.conditions import Decomposition, decompose
from ..algebra.terms import (AntiProject, Antijoin, Filter, Fixpoint, Join,
                             Literal, Rename, RelVar, Term, Union)

#: Default selectivity for predicates the estimator has no statistics for.
DEFAULT_SELECTIVITY = 0.33
#: Hard cap on the number of simulated fixpoint iterations.
MAX_SIMULATED_ITERATIONS = 64


class CardinalityEstimator:
    """Estimate the cardinality (and per-column distinct counts) of terms."""

    def __init__(self, catalog: StatisticsCatalog):
        self.catalog = catalog
        #: Sub-term estimates, kept for the lifetime of the estimator (one
        #: ``rank_plans`` call, whose plans share most of their sub-terms).
        #: The catalog is a view over an immutable snapshot, so they never
        #: go stale.  An estimate depends on the term and on the
        #: statistics its environment binds, which are identified by
        #: object: the entry keeps them alive so an ``id()`` cannot be
        #: reused under it.
        self._estimates: dict[tuple, tuple[tuple, RelationStats]] = {}
        self._decompositions: dict[Fixpoint, Decomposition] = {}

    # -- Public API -----------------------------------------------------------

    def estimate(self, term: Term,
                 env: Mapping[str, RelationStats] | None = None) -> RelationStats:
        """Return the estimated statistics of ``term``.

        ``env`` binds recursive variables to the statistics assumed for them
        (used internally when simulating fixpoint growth).
        """
        return self._estimate(term, dict(env or {}))

    def cardinality(self, term: Term) -> int:
        """Shortcut returning only the estimated row count."""
        return self.estimate(term).cardinality

    def decomposition(self, term: Fixpoint) -> Decomposition:
        """``decompose(term)``, computed once per estimator."""
        decomposition = self._decompositions.get(term)
        if decomposition is None:
            decomposition = self._decompositions[term] = decompose(term)
        return decomposition

    # -- Dispatch -------------------------------------------------------------

    def _estimate(self, term: Term, env: dict[str, RelationStats]) -> RelationStats:
        if isinstance(term, RelVar):  # a lookup already: nothing to memoize
            if term.name in env:
                return env[term.name]
            return self.catalog.get(term.name)
        bound = tuple(env.values())
        key = (term, *env, *map(id, bound))
        entry = self._estimates.get(key)
        if entry is None:
            entry = self._estimates[key] = (bound, self._compute(term, env))
        return entry[1]

    def _compute(self, term: Term, env: dict[str, RelationStats]) -> RelationStats:
        if isinstance(term, Literal):
            return RelationStats.of(term.relation)
        if isinstance(term, Filter):
            return self._estimate_filter(term, env)
        if isinstance(term, Union):
            return self._estimate_union(term, env)
        if isinstance(term, Join):
            return self._estimate_join(term, env)
        if isinstance(term, Antijoin):
            return self._estimate_antijoin(term, env)
        if isinstance(term, Rename):
            return self._estimate_rename(term, env)
        if isinstance(term, AntiProject):
            return self._estimate_antiproject(term, env)
        if isinstance(term, Fixpoint):
            return self._estimate_fixpoint(term, env)
        raise CostEstimationError(f"cannot estimate term of type {type(term).__name__}")

    # -- Non-recursive operators ----------------------------------------------

    def _estimate_filter(self, term: Filter, env) -> RelationStats:
        child = self._estimate(term.child, env)
        selectivity = self._selectivity(term.predicate, child)
        estimate = child.scaled(selectivity)
        distinct = dict(estimate.distinct_values)
        for column in term.predicate.columns():
            if isinstance(term.predicate, (Eq,)):
                distinct[column] = 1
            elif column in distinct:
                distinct[column] = max(1, int(distinct[column] * selectivity))
        return RelationStats(cardinality=estimate.cardinality, distinct_values=distinct)

    def _estimate_union(self, term: Union, env) -> RelationStats:
        left = self._estimate(term.left, env)
        right = self._estimate(term.right, env)
        cardinality = left.cardinality + right.cardinality
        distinct = dict(left.distinct_values)
        for column, count in right.distinct_values.items():
            distinct[column] = min(cardinality, distinct.get(column, 0) + count)
        return RelationStats(cardinality=cardinality, distinct_values=distinct)

    def _estimate_join(self, term: Join, env) -> RelationStats:
        left = self._estimate(term.left, env)
        right = self._estimate(term.right, env)
        common = set(left.distinct_values) & set(right.distinct_values)
        cardinality = left.cardinality * right.cardinality
        for column in common:
            cardinality /= max(left.distinct(column), right.distinct(column))
        cardinality = max(0, int(round(cardinality)))
        distinct: dict[str, int] = {}
        for column in set(left.distinct_values) | set(right.distinct_values):
            counts = []
            if column in left.distinct_values:
                counts.append(left.distinct(column))
            if column in right.distinct_values:
                counts.append(right.distinct(column))
            distinct[column] = max(1, min(min(counts), cardinality or 1))
        return RelationStats(cardinality=cardinality, distinct_values=distinct)

    def _estimate_antijoin(self, term: Antijoin, env) -> RelationStats:
        left = self._estimate(term.left, env)
        right = self._estimate(term.right, env)
        common = set(left.distinct_values) & set(right.distinct_values)
        if not common:
            survival = 0.0 if right.cardinality else 1.0
        else:
            # Fraction of left keys with no partner: crude independence model.
            survival = 1.0
            for column in common:
                coverage = min(1.0, right.distinct(column) / left.distinct(column))
                survival *= (1.0 - coverage * 0.5)
        return left.scaled(max(0.05, survival))

    def _estimate_rename(self, term: Rename, env) -> RelationStats:
        child = self._estimate(term.child, env)
        distinct = dict(child.distinct_values)
        if term.old in distinct:
            distinct[term.new] = distinct.pop(term.old)
        return RelationStats(cardinality=child.cardinality, distinct_values=distinct)

    def _estimate_antiproject(self, term: AntiProject, env) -> RelationStats:
        child = self._estimate(term.child, env)
        distinct = {column: count for column, count in child.distinct_values.items()
                    if column not in set(term.columns)}
        # Dropping columns can only merge duplicates: cap the cardinality by
        # the size of the remaining column domain.
        domain = 1
        for count in distinct.values():
            domain *= max(1, count)
            if domain > child.cardinality:
                domain = child.cardinality
                break
        cardinality = min(child.cardinality, max(1, domain)) if distinct else min(
            child.cardinality, 1)
        return RelationStats(cardinality=cardinality, distinct_values=distinct)

    # -- Fixpoints ---------------------------------------------------------------

    def _estimate_fixpoint(self, term: Fixpoint, env) -> RelationStats:
        decomposition = self.decomposition(term)
        seed = self._estimate(decomposition.constant_part, env)
        if decomposition.variable_part is None:
            return seed
        # Simulate the semi-naive iteration on the estimates: the delta of
        # round i feeds the variable part of round i+1.  The number of
        # simulated rounds is logarithmic in the domain size, following the
        # log-based estimation technique used by the Dist-mu-RA cost model.
        domain = max(2, max([seed.cardinality] + list(seed.distinct_values.values())))
        rounds = min(MAX_SIMULATED_ITERATIONS, max(1, int(math.ceil(math.log2(domain))) + 1))
        total_cardinality = seed.cardinality
        total_distinct = dict(seed.distinct_values)
        delta = seed
        bound = self._fixpoint_bound(seed)
        for _ in range(rounds):
            inner_env = dict(env)
            inner_env[term.var] = delta
            produced = self._estimate(decomposition.variable_part, inner_env)
            if produced.cardinality <= 0:
                break
            delta = produced
            total_cardinality = min(bound, total_cardinality + produced.cardinality)
            for column, count in produced.distinct_values.items():
                current = total_distinct.get(column, 0)
                total_distinct[column] = min(bound, max(current, count))
            if total_cardinality >= bound:
                break
        return RelationStats(cardinality=int(total_cardinality),
                             distinct_values=total_distinct)

    @staticmethod
    def _fixpoint_bound(seed: RelationStats) -> int:
        """Upper bound on a fixpoint size: the product of column domains."""
        bound = 1
        for count in seed.distinct_values.values():
            bound *= max(1, count)
        # The reachability relation cannot exceed |domain|^2-ish; also never
        # let the bound drop below the seed itself.
        return max(seed.cardinality, min(bound * 64, 10 ** 12))

    # -- Predicates ----------------------------------------------------------------

    def _selectivity(self, predicate: Predicate, stats: RelationStats) -> float:
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, Eq):
            return stats.selectivity_equals(predicate.column)
        if isinstance(predicate, In):
            return min(1.0, len(predicate.values) * stats.selectivity_equals(
                predicate.column))
        if isinstance(predicate, Compare):
            if predicate.op in ("==",):
                return stats.selectivity_equals(predicate.column)
            if predicate.op in ("!=",):
                return 1.0 - stats.selectivity_equals(predicate.column)
            return DEFAULT_SELECTIVITY
        if isinstance(predicate, ColumnEq):
            return 1.0 / max(stats.distinct(predicate.left),
                             stats.distinct(predicate.right))
        if isinstance(predicate, And):
            return (self._selectivity(predicate.left, stats)
                    * self._selectivity(predicate.right, stats))
        if isinstance(predicate, Or):
            left = self._selectivity(predicate.left, stats)
            right = self._selectivity(predicate.right, stats)
            return min(1.0, left + right - left * right)
        if isinstance(predicate, Not):
            return max(0.0, 1.0 - self._selectivity(predicate.inner, stats))
        return DEFAULT_SELECTIVITY
