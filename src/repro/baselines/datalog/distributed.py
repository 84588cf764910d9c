"""BigDatalog-style distributed Datalog evaluation.

BigDatalog [Shkapsky et al., SIGMOD 2016] runs Datalog on Spark.  Its key
distribution technique (the *GPS* generalized-pivoting analysis) detects
*decomposable* programs — recursions that preserve a pivot argument — and
partitions the data on that argument so every worker evaluates its share of
the recursion locally; non-decomposable programs fall back to a global loop
with one shuffle per iteration.

The baseline implemented here follows the same architecture on the
simulated cluster:

1. UCRPQs are translated to left-linear Datalog (:mod:`.translate`),
2. bound constants are pushed with magic-set style specialisation when the
   recursion direction allows it (:mod:`.magic`),
3. recursive predicates are checked for decomposability (pivot on the first
   argument) and the corresponding communication pattern is recorded,
4. the program is evaluated bottom-up with the semi-naive engine.

What it *cannot* do — merge recursions, reverse them, or push joins through
them — is exactly what separates it from Dist-mu-RA in the experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ...data.graph import LabeledGraph
from ...data.relation import Relation
from ...distributed.cluster import SparkCluster
from ...query.ast import UCRPQ
from ...query.parser import parse_query
from .ast import Program, Var
from .engine import SemiNaiveEngine
from .magic import MagicSetSpecializer, SpecializationReport
from .translate import GOAL_PREDICATE, graph_to_edb, ucrpq_to_datalog


@dataclass
class BigDatalogResult:
    """Result of one BigDatalog query evaluation."""

    relation: Relation
    program: Program
    specialization: SpecializationReport
    decomposable_predicates: list[str] = field(default_factory=list)
    non_decomposable_predicates: list[str] = field(default_factory=list)
    iterations: int = 0
    facts_derived: int = 0
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.relation)


class BigDatalogEngine:
    """The BigDatalog baseline bound to one graph and one simulated cluster."""

    def __init__(self, graph: LabeledGraph, num_workers: int = 4,
                 max_facts: int | None = None):
        self.graph = graph
        self.cluster = SparkCluster(num_workers=num_workers)
        self.max_facts = max_facts
        self._edb = graph_to_edb(graph)

    # -- Public API -----------------------------------------------------------

    def run_query(self, query: str | UCRPQ) -> BigDatalogResult:
        """Translate, optimise, distribute and evaluate one UCRPQ."""
        started = time.perf_counter()
        parsed = parse_query(query) if isinstance(query, str) else query
        program, report = MagicSetSpecializer().specialize(
            ucrpq_to_datalog(parsed))
        self.cluster.reset_metrics()
        decomposable, non_decomposable = self._analyse_distribution(program)
        engine = SemiNaiveEngine(max_facts=self.max_facts)
        facts = engine.evaluate(program, self._edb)
        self._record_communication(program, facts, engine,
                                   decomposable, non_decomposable)
        columns = tuple(sorted(v.name for v in parsed.head))
        relation = self._goal_relation(parsed, facts, columns)
        elapsed = time.perf_counter() - started
        return BigDatalogResult(
            relation=relation,
            program=program,
            specialization=report,
            decomposable_predicates=decomposable,
            non_decomposable_predicates=non_decomposable,
            iterations=engine.stats.iterations,
            facts_derived=engine.stats.facts_derived,
            elapsed_seconds=elapsed,
        )

    def run_program(self, program: Program,
                    goal_columns: tuple[str, ...]) -> Relation:
        """Evaluate a hand-written Datalog program (used by the C7 workloads)."""
        engine = SemiNaiveEngine(max_facts=self.max_facts)
        facts = engine.evaluate(program, self._edb)
        rows = facts.get(program.goal, set())
        return Relation(goal_columns, rows) if rows else Relation.empty(goal_columns)

    # -- Distribution analysis (GPS-style) -----------------------------------------

    def _analyse_distribution(self, program: Program) -> tuple[list[str], list[str]]:
        return analyse_distribution(program)

    def _record_communication(self, program: Program, facts, engine,
                              decomposable: list[str],
                              non_decomposable: list[str]) -> None:
        """Record the communication pattern the evaluation would have had."""
        metrics = self.cluster.metrics
        metrics.partitioning = "pivot" if decomposable and not non_decomposable \
            else "broadcast"
        iterations = max(1, engine.stats.iterations)
        if non_decomposable:
            # Global loop: the recursive delta is reshuffled at every round.
            metrics.global_iterations += iterations
            for predicate in non_decomposable:
                size = len(facts.get(predicate, ()))
                per_round = max(1, size // iterations)
                for _ in range(iterations):
                    self.cluster.record_shuffle(per_round)
        else:
            metrics.local_iterations += iterations
        # EDB relations used by recursive rules are broadcast to the workers.
        recursive_edb = set()
        for rule in program.rules:
            if any(a.predicate in program.idb_predicates()
                   and program.is_recursive(a.predicate) for a in rule.body):
                recursive_edb |= {a.predicate for a in rule.body
                                  if a.predicate in program.edb_predicates()}
        for predicate in sorted(recursive_edb):
            self.cluster.record_broadcast(len(self._edb.get(predicate, ())))
        self.cluster.record_tasks(self.cluster.num_workers)

    # -- Result shaping ---------------------------------------------------------------

    @staticmethod
    def _goal_relation(parsed: UCRPQ, facts, columns: tuple[str, ...]) -> Relation:
        return goal_relation(parsed, facts, columns)

    def __repr__(self) -> str:
        return (f"BigDatalogEngine(graph={self.graph.name!r}, "
                f"workers={self.cluster.num_workers})")


def analyse_distribution(program: Program) -> tuple[list[str], list[str]]:
    """Classify recursive predicates as decomposable or not (GPS-style).

    A predicate is decomposable when every recursive rule preserves its
    first argument from the recursive body atom — the generalized-pivot
    condition that lets BigDatalog co-partition the recursion.  Shared by
    :class:`BigDatalogEngine` and the session's Datalog front-end.
    """
    decomposable: list[str] = []
    non_decomposable: list[str] = []
    for predicate in sorted(program.idb_predicates()):
        if not program.is_recursive(predicate):
            continue
        if _has_pivot(program, predicate):
            decomposable.append(predicate)
        else:
            non_decomposable.append(predicate)
    return decomposable, non_decomposable


def _has_pivot(program: Program, predicate: str) -> bool:
    for rule in program.rules_for(predicate):
        recursive_atoms = [a for a in rule.body if a.predicate == predicate]
        if not recursive_atoms:
            continue
        head_arg = rule.head.args[0]
        if not isinstance(head_arg, Var):
            return False
        for atom in recursive_atoms:
            if atom.args[0] != head_arg:
                return False
    return True


def goal_relation(parsed: UCRPQ, facts, columns: tuple[str, ...]) -> Relation:
    """Shape the derived goal facts into a relation over the head columns."""
    rows = facts.get(GOAL_PREDICATE, set())
    head_names = [v.name for v in parsed.head]
    order = [head_names.index(column) for column in columns]
    if not rows:
        return Relation.empty(columns)
    reordered = {tuple(row[i] for i in order) for row in rows}
    return Relation(columns, reordered)
