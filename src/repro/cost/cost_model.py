"""Selinger-style cost model over mu-RA terms.

The CostEstimator component of Dist-mu-RA assigns to every logical plan an
abstract cost built from the estimated cardinalities of its sub-terms.  The
model here mirrors that design:

* scanning a relation costs its cardinality,
* a hash join costs the sum of its input and output cardinalities,
* a union costs its inputs plus the duplicate-eliminating pass on its
  output,
* a fixpoint costs the per-iteration cost of its variable part multiplied
  by the estimated number of iterations, plus the accumulation of the
  result (this is where plans that push filters/joins into the recursion
  win: their per-iteration input is much smaller).

Costs are unit-less; only their relative order matters for plan selection.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from ..data.stats import RelationStats, StatisticsCatalog
from ..errors import CostEstimationError
from ..algebra.conditions import decompose
from ..algebra.terms import (AntiProject, Antijoin, Filter, Fixpoint, Join,
                             Literal, Rename, RelVar, Term, Union)
from .cardinality import MAX_SIMULATED_ITERATIONS, CardinalityEstimator

#: Relative weight of one duplicate-elimination pass.
DEDUP_FACTOR = 1.0
#: Fixed per-iteration overhead of a fixpoint (scheduling, set difference).
ITERATION_OVERHEAD = 10.0


@dataclass(frozen=True)
class CostReport:
    """Cost of a term together with its estimated output cardinality."""

    cost: float
    estimate: RelationStats


class CostModel:
    """Assign an abstract evaluation cost to mu-RA terms."""

    def __init__(self, catalog: StatisticsCatalog | None = None,
                 estimator: CardinalityEstimator | None = None):
        if estimator is None:
            if catalog is None:
                raise CostEstimationError(
                    "the cost model needs a statistics catalog or an estimator")
            estimator = CardinalityEstimator(catalog)
        self.estimator = estimator

    # -- Public API -----------------------------------------------------------

    def cost(self, term: Term) -> float:
        """Return the estimated cost of evaluating ``term``."""
        return self.report(term).cost

    def report(self, term: Term,
               env: Mapping[str, RelationStats] | None = None) -> CostReport:
        """Return both the cost and the cardinality estimate of ``term``."""
        return self._report(term, dict(env or {}))

    # -- Dispatch -------------------------------------------------------------

    def _report(self, term: Term, env: dict[str, RelationStats]) -> CostReport:
        if isinstance(term, RelVar):
            estimate = self.estimator.estimate(term, env=env)
            return CostReport(cost=float(estimate.cardinality), estimate=estimate)
        if isinstance(term, Literal):
            estimate = RelationStats.of(term.relation)
            return CostReport(cost=float(estimate.cardinality), estimate=estimate)
        if isinstance(term, Filter):
            child = self._report(term.child, env)
            estimate = self.estimator.estimate(term, env=env)
            return CostReport(cost=child.cost + child.estimate.cardinality,
                              estimate=estimate)
        if isinstance(term, (Rename, AntiProject)):
            child = self._report(term.child, env)
            estimate = self.estimator.estimate(term, env=env)
            return CostReport(cost=child.cost + child.estimate.cardinality,
                              estimate=estimate)
        if isinstance(term, Union):
            left = self._report(term.left, env)
            right = self._report(term.right, env)
            estimate = self.estimator.estimate(term, env=env)
            dedup = DEDUP_FACTOR * estimate.cardinality
            return CostReport(cost=left.cost + right.cost + dedup, estimate=estimate)
        if isinstance(term, Join):
            left = self._report(term.left, env)
            right = self._report(term.right, env)
            estimate = self.estimator.estimate(term, env=env)
            work = (left.estimate.cardinality + right.estimate.cardinality
                    + estimate.cardinality)
            return CostReport(cost=left.cost + right.cost + work, estimate=estimate)
        if isinstance(term, Antijoin):
            left = self._report(term.left, env)
            right = self._report(term.right, env)
            estimate = self.estimator.estimate(term, env=env)
            work = left.estimate.cardinality + right.estimate.cardinality
            return CostReport(cost=left.cost + right.cost + work, estimate=estimate)
        if isinstance(term, Fixpoint):
            return self._report_fixpoint(term, env)
        raise CostEstimationError(f"cannot cost term of type {type(term).__name__}")

    # -- Fixpoint -------------------------------------------------------------

    def _report_fixpoint(self, term: Fixpoint, env: dict[str, RelationStats]) -> CostReport:
        decomposition = decompose(term)
        seed_report = self._report(decomposition.constant_part, env)
        estimate = self.estimator.estimate(term, env=env)
        if decomposition.variable_part is None:
            return CostReport(cost=seed_report.cost, estimate=estimate)
        # Estimated number of iterations: logarithmic in the result size
        # (log-based technique), never below 2.
        iterations = max(2, int(math.ceil(math.log2(max(2, estimate.cardinality)))))
        iterations = min(iterations, MAX_SIMULATED_ITERATIONS)
        # Cost of one iteration of the variable part, with the recursive
        # variable bound to an "average delta" (total size / iterations).
        average_delta = estimate.scaled(1.0 / iterations)
        inner_env = dict(env)
        inner_env[term.var] = average_delta
        iteration_report = self._report(decomposition.variable_part, inner_env)
        loop_cost = iterations * (iteration_report.cost + ITERATION_OVERHEAD)
        accumulation = DEDUP_FACTOR * estimate.cardinality
        total = seed_report.cost + loop_cost + accumulation
        return CostReport(cost=total, estimate=estimate)
