"""Comparing the distributed fixpoint plans and their communication costs.

This example reproduces, on a small random graph, the core argument of the
paper (Section III / Fig. 9): the global-loop plan Pgld shuffles data at
every iteration of the recursion, while the parallel-local-loop plan Pplw^s
shuffles at most once — and not at all when the constant part is partitioned
on a stable column.

Run with::

    python examples/distributed_plan_comparison.py
"""

from __future__ import annotations

import time

from repro.algebra import RelVar, closure
from repro.datasets import erdos_renyi_graph
from repro.distributed import (PGLD, PPLW_SPARK, SparkCluster, make_plan,
                               plan_partitioning)
from repro.algebra import schemas_of_database


def main() -> None:
    graph = erdos_renyi_graph(800, num_edges=3_200, seed=9, name="rnd_800")
    database = graph.relations()
    term = closure(RelVar("edge"))
    print(f"graph: {graph}")
    print(f"query: transitive closure edge+\n")

    decision = plan_partitioning(term, schemas_of_database(database))
    print(f"stable columns found: {decision.key_columns} "
          f"(strategy: {decision.strategy}, disjoint results: {decision.disjoint})\n")

    print(f"{'plan':14s} {'time':>8s} {'rows':>8s} {'shuffles':>9s} "
          f"{'tuples shuffled':>16s} {'iterations':>11s}")
    for strategy in (PGLD, PPLW_SPARK):
        cluster = SparkCluster(num_workers=4)
        plan = make_plan(strategy, cluster, database)
        started = time.perf_counter()
        result = plan.execute(term)
        elapsed = time.perf_counter() - started
        metrics = cluster.metrics
        iterations = metrics.global_iterations or metrics.local_iterations
        print(f"{strategy:14s} {elapsed:7.3f}s {len(result):8d} "
              f"{metrics.shuffles:9d} {metrics.tuples_shuffled:16d} "
              f"{iterations:11d}")


if __name__ == "__main__":
    main()
