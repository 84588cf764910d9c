"""Plan ranking and selection based on the cost model."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..data.stats import StatisticsCatalog
from ..errors import PlanSelectionError, ReproError
from ..algebra.terms import Term
from .cost_model import CostModel


@dataclass(frozen=True)
class RankedPlan:
    """One logical plan together with its estimated cost."""

    term: Term
    cost: float
    estimated_cardinality: int


def rank_plans(plans: Iterable[Term],
               catalog: StatisticsCatalog | None = None,
               cost_model: CostModel | None = None) -> list[RankedPlan]:
    """Cost every plan and return them sorted by increasing estimated cost.

    Plans the cost model rejects with a ``ReproError`` (hand-written
    terms; rewriter output should not) rank last at infinite cost rather
    than dropped, so the caller still sees the full plan space.  Any other
    exception is a cost-model defect, and propagates: cached, it would
    outlive commits.
    """
    model = cost_model if cost_model is not None else CostModel(catalog)
    ranked: list[RankedPlan] = []
    for plan in plans:
        try:
            report = model.report(plan)
            ranked.append(RankedPlan(term=plan, cost=report.cost,
                                     estimated_cardinality=report.estimate.cardinality))
        except ReproError:
            ranked.append(RankedPlan(term=plan, cost=float("inf"),
                                     estimated_cardinality=0))
    ranked.sort(key=lambda plan: plan.cost)
    return ranked


def select_best_plan(plans: Iterable[Term],
                     catalog: StatisticsCatalog | None = None,
                     cost_model: CostModel | None = None) -> RankedPlan:
    """Return the cheapest plan according to the cost model."""
    ranked = rank_plans(plans, catalog=catalog, cost_model=cost_model)
    if not ranked:
        raise PlanSelectionError("no plan to select from")
    return ranked[0]
