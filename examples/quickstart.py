"""Quickstart: load a graph, run a recursive query, inspect the pipeline.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import LabeledGraph, Session


def build_graph() -> LabeledGraph:
    """A tiny knowledge graph: people, cities and a location hierarchy."""
    graph = LabeledGraph(name="quickstart")
    graph.add_edges([
        ("ada", "knows", "grace"),
        ("grace", "knows", "alan"),
        ("alan", "knows", "kurt"),
        ("ada", "livesIn", "london"),
        ("grace", "livesIn", "new_york"),
        ("alan", "livesIn", "manchester"),
        ("london", "isLocatedIn", "england"),
        ("manchester", "isLocatedIn", "england"),
        ("new_york", "isLocatedIn", "usa"),
        ("england", "isLocatedIn", "europe"),
    ])
    return graph


def main() -> None:
    graph = build_graph()
    session = Session(graph, num_workers=4)

    print("== Transitive closure: who does ada (transitively) know? ==")
    result = session.ucrpq("?y <- ada knows+ ?y").collect()
    for row in result.relation.to_dicts():
        print(f"  ada knows+ {row['y']}")

    print("\n== Class C2 query: people living (transitively) in europe ==")
    query = session.ucrpq("?x <- ?x livesIn/isLocatedIn+ europe")
    result = query.collect()
    print(f"  answers: {sorted(result.relation.column_values('x'))}")
    print(f"  query classes: {sorted(query.classes)}")
    print(f"  logical plans explored: {result.plans_explored}")
    print(f"  physical strategy: {result.physical_strategies}")

    print("\n== How the optimizer explains itself ==")
    print(session.explain("?x <- ?x livesIn/isLocatedIn+ europe"))

    print("\n== Distribution metrics (parallel local loops vs global loop) ==")
    from repro import PGLD, PPLW_SPARK
    for strategy in (PPLW_SPARK, PGLD):
        run = session.ucrpq("?x,?y <- ?x knows+ ?y").collect(strategy=strategy)
        metrics = run.metrics
        print(f"  {strategy:12s} shuffles={metrics.shuffles:3d} "
              f"tuples_shuffled={metrics.tuples_shuffled:5d} "
              f"local_iterations={metrics.local_iterations:3d} "
              f"global_iterations={metrics.global_iterations:3d}")

    print("\n== Task waves (Pplw local loops on the simulated workers) ==")
    run = session.ucrpq("?x,?y <- ?x knows+ ?y").collect(strategy=PPLW_SPARK)
    metrics = run.metrics
    print(f"  tasks={metrics.tasks_launched} waves={metrics.task_waves} "
          f"straggler={metrics.slowest_task_seconds:.6f}s "
          f"compute_skew={metrics.compute_skew():.2f}")

    session.close()


if __name__ == "__main__":
    main()
