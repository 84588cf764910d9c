"""Protein-interaction exploration over a Uniprot-like graph.

The second motivating domain of the paper: biological graphs, where
recursive queries follow chains of protein interactions, shared tissues and
shared keywords.

Run with::

    python examples/protein_interactions.py
"""

from __future__ import annotations

from repro.datasets import uniprot_constants, uniprot_graph
from repro import Session


def main() -> None:
    graph = uniprot_graph(num_edges=3_000, seed=11)
    constants = uniprot_constants(graph)
    protein = constants["protein"]
    print(f"generated {graph}: {len(graph)} edges")
    print(f"anchor protein for the filtered queries: {protein}\n")

    session = Session(graph, num_workers=4)

    print("== Interaction reachability from one protein ==")
    reachable = session.ucrpq(f"?y <- {protein} int+ ?y").collect()
    print(f"  {protein} transitively interacts with "
          f"{len(reachable.relation)} proteins")

    print("\n== Proteins occurring in the same tissues (possibly indirectly) ==")
    shared_tissue = session.ucrpq(f"?x <- {protein} (occ/-occ)+ ?x").collect()
    print(f"  proteins sharing a tissue chain with {protein}: "
          f"{len(shared_tissue.relation)}")

    print("\n== A class C6 query: interaction chain then shared keyword ==")
    result = session.ucrpq("?x,?y <- ?x int+/(hKw/-hKw)+ ?y").collect()
    print(f"  result size: {len(result.relation)} pairs")
    print(f"  plans explored: {result.plans_explored}, "
          f"selected cost: {result.estimated_cost:.0f}")
    print(f"  physical strategies: {result.physical_strategies}")
    print(f"  partitioning: {result.metrics.partitioning}, "
          f"final union skipped: {result.metrics.final_union_skipped}")


if __name__ == "__main__":
    main()
