"""Fig. 15 and §V-E.6 — evaluation of the cost model.

For one C6 Yago query, every equivalent logical plan is costed by the
estimator and actually executed; the paper's claims to reproduce are:

* the plan selected by the cost model sits in the top fraction of the
  actual-execution-time ranking (the paper reports top 14.7 % on average),
* it is substantially faster than the average equivalent plan,
* it is close to (but usually not exactly) the best plan.

Each plan takes a few milliseconds, so one timing per plan compares the
timer more than the plans.  Every plan runs once to warm up, then in
``ROUNDS`` interleaved rounds (plan 0, 1, …, n, plan 0, 1, …), and each
plan's time is the median of its rounds.
"""

from __future__ import annotations

import statistics
import time

from repro.algebra import evaluate, schemas_of_database
from repro.bench import series_table
from repro.cost import rank_plans
from repro.data import StatisticsCatalog
from repro.query import parse_query, translate_query
from repro.rewriter import explore_plans

FIGURE_TITLE = "Fig. 15 - estimated cost vs actual evaluation time of all plans"

QUERY_TEXT = "?x,?y <- ?x isLocatedIn+/dealsWith+ ?y"     # Q8, class C6
MAX_PLANS = 32
#: Timed rounds over the whole plan space, after one warm-up round.
ROUNDS = 7


def _plan_space_measurements(graph):
    database = graph.relations()
    term = translate_query(parse_query(QUERY_TEXT))
    plans = explore_plans(term, schemas_of_database(database), max_plans=MAX_PLANS)
    ranked = rank_plans(plans, catalog=StatisticsCatalog(database))
    samples: list[list[float]] = [[] for _ in ranked]
    for round_index in range(ROUNDS + 1):
        for position, plan in enumerate(ranked):
            started = time.perf_counter()
            evaluate(plan.term, database)
            elapsed = time.perf_counter() - started
            if round_index:  # round 0 warms up
                samples[position].append(elapsed)
    return [(position, plan.cost, statistics.median(samples[position]))
            for position, plan in enumerate(ranked)]


def test_cost_model_ranking(benchmark, figure_report, yago_graph):
    measurements = benchmark.pedantic(
        lambda: _plan_space_measurements(yago_graph), rounds=1, iterations=1)
    times = [elapsed for _, _, elapsed in measurements]
    selected_time = times[0]
    best_time = min(times)
    average_time = sum(times) / len(times)
    position = sorted(times).index(selected_time) / max(1, len(times) - 1)
    figure_report.add_section(series_table(
        [(rank, {"estimated_cost": cost, "execution_ms": elapsed * 1e3})
         for rank, cost, elapsed in measurements],
        "Fig. 15 - plans ranked by estimated cost",
        x_label="cost rank"))
    figure_report.add_section(
        "Cost-model summary (paper: selected plan within top 14.7% of\n"
        "execution times, 58% faster than the average plan, 20% slower than\n"
        "the best plan):\n"
        f"  plans explored:               {len(times)}\n"
        f"  timed rounds per plan:        {ROUNDS} (median)\n"
        f"  selected plan time:           {selected_time * 1e3:.3f} ms\n"
        f"  best plan time:               {best_time * 1e3:.3f} ms\n"
        f"  average plan time:            {average_time * 1e3:.3f} ms\n"
        f"  selected position (fraction): {position:.2%}\n"
        f"  speedup vs average plan:      {average_time / selected_time:.2f}x\n"
        f"  slowdown vs best plan:        {selected_time / best_time:.2f}x")
    # The selected plan must beat the average of the equivalent plans and
    # sit in the upper half of the ranking — the qualitative claim of §V-E.6.
    assert selected_time <= average_time
    assert position <= 0.5
