"""Random graph generators: Erdos-Renyi graphs and random trees.

These are the synthetic topologies used throughout the paper's evaluation:

* ``rnd_n_p`` — Erdos-Renyi random graphs with ``n`` nodes and edge
  probability ``p`` (used for the transitive-closure experiments of Fig. 5
  and the concatenated-closure experiments of Fig. 12, where the edges are
  additionally labelled from a small label set),
* ``tree_n`` — random recursive trees where node ``i+1`` attaches to a
  uniformly chosen earlier node (used by the same-generation workloads).

All generators are deterministic for a given ``seed``.
"""

from __future__ import annotations

import random

from ..data.graph import LabeledGraph
from ..errors import DatasetError

DEFAULT_LABEL = "edge"


def erdos_renyi_graph(num_nodes: int, edge_probability: float | None = None,
                      num_edges: int | None = None,
                      labels: tuple[str, ...] = (DEFAULT_LABEL,),
                      seed: int = 0, name: str | None = None) -> LabeledGraph:
    """Generate an Erdos-Renyi style random graph.

    Either ``edge_probability`` (the G(n, p) model) or ``num_edges`` (the
    G(n, m) model, faster for sparse graphs) must be given.  When several
    ``labels`` are provided, each edge gets one chosen uniformly at random —
    this is how the concatenated-closure benchmark builds its 10-label
    graph.
    """
    if num_nodes <= 0:
        raise DatasetError("num_nodes must be positive")
    if (edge_probability is None) == (num_edges is None):
        raise DatasetError("give exactly one of edge_probability or num_edges")
    if not labels:
        raise DatasetError("at least one edge label is required")
    rng = random.Random(seed)
    graph_name = name or (f"rnd_{num_nodes}_{edge_probability}"
                          if edge_probability is not None
                          else f"rnd_{num_nodes}_m{num_edges}")
    graph = LabeledGraph(name=graph_name)
    if edge_probability is not None:
        if not 0.0 <= edge_probability <= 1.0:
            raise DatasetError("edge_probability must be within [0, 1]")
        # G(n, m) sampling with m = p * n * (n-1): statistically equivalent
        # for the sparse graphs used here and much faster than n^2 trials.
        expected_edges = int(round(edge_probability * num_nodes * (num_nodes - 1)))
        num_edges = expected_edges
    seen: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = max(10 * num_edges, 100)
    while len(seen) < num_edges and attempts < max_attempts:
        attempts += 1
        src = rng.randrange(num_nodes)
        trg = rng.randrange(num_nodes)
        if src == trg or (src, trg) in seen:
            continue
        seen.add((src, trg))
        graph.add_edge(src, rng.choice(labels), trg)
    return graph


def random_tree(num_nodes: int, label: str = DEFAULT_LABEL, seed: int = 0,
                name: str | None = None, direction: str = "child-to-parent") -> LabeledGraph:
    """Generate a random recursive tree of ``num_nodes`` nodes.

    ``tree_1`` is a single node; ``tree_{i+1}`` attaches node ``i`` as a
    child of a uniformly chosen existing node (the construction described in
    Section V-B).  ``direction`` controls edge orientation: the
    same-generation workloads expect ``child-to-parent`` edges.
    """
    if num_nodes <= 0:
        raise DatasetError("num_nodes must be positive")
    if direction not in ("child-to-parent", "parent-to-child"):
        raise DatasetError(f"unknown direction {direction!r}")
    rng = random.Random(seed)
    graph = LabeledGraph(name=name or f"tree_{num_nodes}")
    for node in range(1, num_nodes):
        parent = rng.randrange(node)
        if direction == "child-to-parent":
            graph.add_edge(node, label, parent)
        else:
            graph.add_edge(parent, label, node)
    return graph


def chain_graph(length: int, label: str = DEFAULT_LABEL,
                name: str | None = None) -> LabeledGraph:
    """A simple directed chain 0 -> 1 -> ... -> length (for depth testing)."""
    if length <= 0:
        raise DatasetError("length must be positive")
    graph = LabeledGraph(name=name or f"chain_{length}")
    for node in range(length):
        graph.add_edge(node, label, node + 1)
    return graph
