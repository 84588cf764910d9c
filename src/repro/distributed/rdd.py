"""Partitioned datasets: the Dataset / SetRDD abstractions.

Two Spark abstractions matter for the paper's execution plans:

* **Dataset** — relational data partitioned across workers, with
  per-partition task waves (``map_partitions``) and the shuffle-based
  operators (``distinct``, shuffle union / difference) that the ``Pgld``
  global-loop plan pays on every iteration,
* **SetRDD** — the BigDatalog abstraction reused by ``Pplw``: every
  partition is the *set* one worker's local fixpoint produced, so the
  final union needs at most one shuffle, and none when the partitions
  are provably disjoint.

Relational operators are not applied here: a partition task evaluates its
term with the shared engines (:mod:`repro.distributed.plans`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..data.relation import Relation
from ..errors import DistributionError
from .cluster import SparkCluster


def _apply_partition_task(fn: Callable[[Relation, int], Relation],
                          partition: Relation, worker_id: int) -> Relation:
    """Module-level task body so pooled executors can address it by name."""
    return fn(partition, worker_id)


class DistributedRelation:
    """A relation split into one partition per worker."""

    def __init__(self, cluster: SparkCluster, partitions: list[Relation]):
        if len(partitions) != cluster.num_workers:
            raise DistributionError(
                f"expected {cluster.num_workers} partitions, got {len(partitions)}"
            )
        schemas = {partition.columns for partition in partitions}
        if len(schemas) != 1:
            raise DistributionError(
                f"all partitions must share one schema, got {sorted(schemas)}"
            )
        self.cluster = cluster
        self.partitions = list(partitions)
        self.columns = partitions[0].columns

    # -- Constructors ----------------------------------------------------------

    @classmethod
    def from_relation(cls, cluster: SparkCluster, relation: Relation,
                      key_columns: Iterable[str] | None = None) -> "DistributedRelation":
        """Distribute a relation over the cluster.

        With ``key_columns`` the relation is hash-partitioned on those
        columns (co-partitioning rows that agree on them); otherwise a
        round-robin split balances the partition sizes.
        """
        if key_columns is not None:
            partitions = relation.split_by_columns(tuple(key_columns),
                                                   cluster.num_workers)
        else:
            partitions = relation.split_round_robin(cluster.num_workers)
        return cls(cluster, partitions)

    # -- Basic accessors --------------------------------------------------------

    def count(self) -> int:
        return sum(len(partition) for partition in self.partitions)

    __len__ = count

    def partition_sizes(self) -> list[int]:
        return [len(partition) for partition in self.partitions]

    def collect(self) -> Relation:
        """Bring every partition back to the driver (deduplicating)."""
        rows: set = set()
        for partition in self.partitions:
            rows.update(partition.rows)
        return Relation._from_trusted(self.columns, rows)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(partitions={self.partition_sizes()}, "
                f"columns={list(self.columns)})")

    # -- Narrow (per-partition) transformations ---------------------------------

    def map_partitions(self, fn: Callable[[Relation, int], Relation]) -> "DistributedRelation":
        """Apply a function to every partition (one task per partition).

        The tasks are independent, so they are submitted as one wave to the
        cluster's executor backend and run concurrently when the backend
        allows it.
        """
        outcomes = self.cluster.run_tasks(
            _apply_partition_task,
            [(fn, partition, worker_id)
             for worker_id, partition in enumerate(self.partitions)])
        new_partitions = []
        for worker_id, outcome in enumerate(outcomes):
            self.cluster.record_worker_tuples(worker_id, len(outcome.value))
            new_partitions.append(outcome.value)
        return type(self)(self.cluster, new_partitions)

    # -- Wide (shuffle) transformations -------------------------------------------

    def distinct(self) -> "DistributedRelation":
        """Global duplicate elimination: requires a shuffle by row hash."""
        total = self.count()
        self.cluster.record_shuffle(total)
        collected = self.collect()
        self.cluster.metrics.duplicates_eliminated += total - len(collected)
        return type(self).from_relation(self.cluster, collected)

    def union_distinct(self, other: "DistributedRelation") -> "DistributedRelation":
        """Spark-style union followed by ``distinct()`` (one shuffle)."""
        self._require_same_layout(other)
        merged = [mine.union(theirs)
                  for mine, theirs in zip(self.partitions, other.partitions)]
        return type(self)(self.cluster, merged).distinct()

    def subtract_distinct(self, other: "DistributedRelation") -> "DistributedRelation":
        """Global set difference: shuffles both sides by row hash."""
        self._require_same_layout(other)
        self.cluster.record_shuffle(self.count() + other.count())
        mine = self.collect()
        theirs = other.collect()
        return type(self).from_relation(self.cluster, mine.difference(theirs))

    # -- Internal ------------------------------------------------------------------

    def _require_same_layout(self, other: "DistributedRelation") -> None:
        if self.cluster is not other.cluster:
            raise DistributionError("datasets live on different clusters")
        if self.columns != other.columns:
            raise DistributionError(
                f"incompatible schemas {self.columns} and {other.columns}")


class DistinctAccumulator:
    """``Pgld``'s accumulated Dataset, for the semi-naive driver.

    The distributed twin of :class:`~repro.data.storage.DeltaAccumulator`:
    ``absorb`` is the global set difference followed by the global union,
    each of which repartitions the data — the per-iteration shuffles that
    make the plan's communication grow with the recursion depth.
    """

    def __init__(self, seed: DistributedRelation):
        self.dataset = seed

    def __len__(self) -> int:
        return self.dataset.count()

    def absorb(self, produced: DistributedRelation) -> DistributedRelation:
        # new = phi(new) \ X    (global set difference: shuffle)
        delta = produced.subtract_distinct(self.dataset)
        # X = X U new           (union + distinct: shuffle)
        self.dataset = self.dataset.union_distinct(delta)
        return delta


class SetRDD(DistributedRelation):
    """An RDD whose partitions are sets (BigDatalog's abstraction).

    ``Pplw`` holds the workers' local fixpoints in one: every worker ran
    its own complete loop, so nothing looked at another partition during
    the recursion and only the final union may need a shuffle.
    """

    def collect_no_dedup(self) -> Relation:
        """Concatenate partitions assuming they are pairwise disjoint.

        Valid when the data was partitioned on a stable column: the local
        fixpoints are then provably disjoint (Section III-B), so the final
        union does not need to eliminate duplicates.
        """
        rows: set = set()
        for partition in self.partitions:
            rows.update(partition.rows)
        return Relation._from_trusted(self.columns, rows)
