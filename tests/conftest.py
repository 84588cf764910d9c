"""Shared fixtures: the paper's running example graph and small databases."""

from __future__ import annotations

import pytest

from repro.algebra import Evaluator, decompose
from repro.data import LabeledGraph, Relation, ValueDictionary
from repro.datasets import erdos_renyi_graph, random_tree
from repro.distributed import (ParallelLocalLoops, PartitioningDecision,
                               make_plan)
from repro.obs.metrics import MetricsRegistry, set_registry

#: The plan-level test matrices' name for ``Pplw^s`` split round robin
#: whatever its stable columns: the one way a fixpoint with a stable
#: column reaches the deduplicating final union (see ``build_plan``).
PPLW_ROUND_ROBIN = "plw-spark-round-robin"


@pytest.fixture(autouse=True)
def registry() -> MetricsRegistry:
    """A fresh metrics registry, installed as the process default for
    one test: every count a test reads starts at zero."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def paper_edges() -> Relation:
    """The edge relation E of Fig. 2 of the paper."""
    pairs = [
        (1, 2), (1, 4), (2, 3), (4, 5), (3, 5), (5, 6),
        (10, 11), (10, 13), (11, 13), (11, 5), (13, 12), (12, 12),
        (12, 10), (13, 11),
    ]
    return Relation.from_pairs(pairs, columns=("src", "trg"))


@pytest.fixture
def paper_start_edges() -> Relation:
    """The start-edge relation S of Fig. 2 (edges leaving the roots 1 and 10)."""
    pairs = [(1, 2), (1, 4), (10, 11), (10, 13)]
    return Relation.from_pairs(pairs, columns=("src", "trg"))


@pytest.fixture
def paper_database(paper_edges, paper_start_edges) -> dict:
    return {"E": paper_edges, "S": paper_start_edges}


class _OperandsOnDemand(dict):
    """The operand table of a variable part, resolved when first read."""

    def __init__(self, database):
        super().__init__()
        self._resolve = Evaluator(database).evaluate_constant

    def __missing__(self, term):
        relation = self[term] = self._resolve(term)
        return relation


@pytest.fixture
def shipped():
    """``(fixpoint, database) -> (var, variable_part, operands, dictionary)``:
    what ``ParallelLocalLoops.execute`` ships to ``run_local_loop`` ahead
    of the chunk, for tests that call the task directly."""
    def ship(fixpoint, database):
        return (fixpoint.var, decompose(fixpoint).variable_part,
                _OperandsOnDemand(database), ValueDictionary())
    return ship


@pytest.fixture
def build_plan():
    """``(strategy, cluster, database) -> plan``: :func:`make_plan`, and
    ``Pplw^s`` with a round-robin partitioning override for
    ``"plw-spark-round-robin"``."""
    def build(strategy, cluster, database):
        if strategy == PPLW_ROUND_ROBIN:
            return ParallelLocalLoops(
                cluster, database,
                partitioning_override=PartitioningDecision.round_robin())
        return make_plan(strategy, cluster, database)
    return build


@pytest.fixture(scope="session")
def seeded_random_graph() -> LabeledGraph:
    """Session-scoped seeded Erdos-Renyi graph shared by the differential
    tests (building it once keeps the plan x engine matrix fast)."""
    return erdos_renyi_graph(36, num_edges=85, seed=20260728,
                             name="differential-er")


@pytest.fixture(scope="session")
def seeded_two_label_graph() -> LabeledGraph:
    """Session-scoped two-label random graph for concatenation queries."""
    return erdos_renyi_graph(30, num_edges=110, seed=4207,
                             labels=("a", "b"), name="differential-ab")


@pytest.fixture(scope="session")
def seeded_tree_graph() -> LabeledGraph:
    """Session-scoped random tree (child-to-parent edges, label ``edge``)."""
    return random_tree(25, seed=97, name="differential-tree")


@pytest.fixture
def small_labeled_graph() -> LabeledGraph:
    """A small knowledge graph exercising several predicates."""
    graph = LabeledGraph(name="small-kg")
    graph.add_edges([
        ("alice", "knows", "bob"),
        ("bob", "knows", "carol"),
        ("carol", "knows", "dave"),
        ("alice", "livesIn", "grenoble"),
        ("bob", "livesIn", "lyon"),
        ("grenoble", "isLocatedIn", "france"),
        ("lyon", "isLocatedIn", "france"),
        ("france", "isLocatedIn", "europe"),
        ("alice", "worksAt", "inria"),
        ("inria", "isLocatedIn", "grenoble"),
    ])
    return graph
