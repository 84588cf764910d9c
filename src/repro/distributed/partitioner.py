"""Fixpoint splitting and stable-column partitioning.

Proposition 3 of the paper (fixpoint splitting) allows the constant part
``R`` of a fixpoint to be split into chunks ``R1..Rn``, each worker running
its own local fixpoint ``mu(X = Ri U phi)``; the results are then unioned.
Any split is correct; the *stable-column* partitioning of Section III-B is
the one that additionally makes the local results pairwise disjoint, so the
final duplicate-eliminating union can be skipped.

:func:`plan_partitioning` decides, statically from the algebraic term,
whether a stable column exists and therefore which strategy to use;
:func:`analyse_fixpoint` pairs that decision with the decomposition it
reads (a cached plan holds one per fixpoint);
:func:`split_constant_part` applies the decision to the concrete data.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..algebra.conditions import Decomposition, decompose
from ..algebra.kernels import SeedShape, seed_shape
from ..algebra.schema import Schema
from ..algebra.stability import stable_columns
from ..algebra.terms import Fixpoint, Term
from ..data.columnar import CodeRows
from ..data.relation import Relation
from ..errors import EvaluationError, SchemaError
from .cluster import SparkCluster

#: Partitioning strategies reported in metrics and benchmark tables.
STABLE_COLUMN = "stable-column"
ROUND_ROBIN = "round-robin"


@dataclass(frozen=True)
class PartitioningDecision:
    """How the constant part of a fixpoint will be split across workers."""

    strategy: str
    key_columns: tuple[str, ...]
    #: True when the per-worker fixpoints are guaranteed pairwise disjoint,
    #: in which case the final union does not need to eliminate duplicates.
    disjoint: bool

    @classmethod
    def round_robin(cls) -> "PartitioningDecision":
        return cls(strategy=ROUND_ROBIN, key_columns=(), disjoint=False)

    @classmethod
    def stable(cls, columns: tuple[str, ...]) -> "PartitioningDecision":
        return cls(strategy=STABLE_COLUMN, key_columns=columns, disjoint=True)


def plan_partitioning(fixpoint: Fixpoint,
                      base_schemas: Mapping[str, Schema],
                      env: Mapping[str, Schema] | None = None,
                      decomposition: Decomposition | None = None,
                      ) -> PartitioningDecision:
    """Choose the partitioning strategy for one fixpoint.

    When the stable-column analysis finds at least one stable column, the
    constant part is hash-partitioned on the full set of stable columns
    (two tuples agreeing on them always land on the same worker), which
    guarantees disjoint local results.  Otherwise the split falls back to
    round-robin and the final union keeps its duplicate elimination.
    ``decomposition`` is ``decompose(fixpoint)`` when the caller holds it.
    """
    try:
        stable = stable_columns(fixpoint, base_schemas, env, decomposition)
    except (SchemaError, EvaluationError):
        stable = frozenset()
    if stable:
        return PartitioningDecision.stable(tuple(sorted(stable)))
    return PartitioningDecision.round_robin()


@dataclass(frozen=True)
class FixpointAnalysis:
    """The static analysis of one fixpoint (§III-B).

    Its ``mu(X = R U phi)`` form beside the partitioning derived from it,
    and whether the kernels compute ``R`` (its seed shape, or None).  All
    are pure functions of the term's shape and the schemas — no constant
    and no row is read — so a cached plan computes them once and every
    execution, every binding of a template included, reuses them.
    """

    decomposition: Decomposition
    partitioning: PartitioningDecision
    seed: SeedShape | None


def analyse_fixpoint(fixpoint: Fixpoint,
                     schemas: Mapping[str, Schema]) -> FixpointAnalysis:
    """Decompose ``fixpoint`` once and derive the rest from that."""
    decomposition = decompose(fixpoint)
    return FixpointAnalysis(
        decomposition,
        plan_partitioning(fixpoint, schemas, decomposition=decomposition),
        seed_shape(decomposition.constant_part, schemas))


def analyse_fixpoints(term: Term, schemas: Mapping[str, Schema],
                      ) -> tuple[FixpointAnalysis, ...]:
    """The analysis of every outermost fixpoint of ``term``.

    In the order the distributed executor meets them: children left to
    right, never descending into a fixpoint.
    """
    if isinstance(term, Fixpoint):
        return (analyse_fixpoint(term, schemas),)
    return tuple(analysis for child in term.children()
                 for analysis in analyse_fixpoints(child, schemas))


def split_constant_part(constant: Relation | CodeRows, cluster: SparkCluster,
                        decision: PartitioningDecision,
                        ) -> list[Relation] | list[CodeRows]:
    """Split the evaluated constant part according to a partitioning
    decision, in the representation it comes in (rows or codes, which
    place every row alike)."""
    if decision.strategy == STABLE_COLUMN and decision.key_columns:
        usable = [c for c in decision.key_columns if c in constant.columns]
        if usable:
            return constant.split_by_columns(tuple(usable), cluster.num_workers)
    return constant.split_round_robin(cluster.num_workers)
