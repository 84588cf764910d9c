"""Partitioned datasets: the Dataset / SetRDD abstractions.

Two Spark abstractions matter for the paper's execution plans:

* **Dataset** — relational data partitioned across workers, with
  per-partition task waves (``map_partitions``); the shuffles that the
  ``Pgld`` global-loop plan pays on every iteration (set difference,
  union with ``distinct()``) are :class:`DistinctAccumulator`'s,
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


class DistinctAccumulator:
    """``Pgld``'s accumulated Dataset, for the semi-naive driver.

    The distributed twin of :class:`~repro.data.storage.DeltaAccumulator`:
    ``absorb`` is the global set difference followed by the global union
    with ``distinct()``, each of which repartitions the data — the
    per-iteration shuffles that make the plan's communication grow with
    the recursion depth.  Both shuffles are *recorded* at the size Spark
    would move; the accumulated ``X`` itself is held once, as one row
    set, because no task ever reads its partitions — only the delta's,
    which is the one thing re-split here.
    """

    def __init__(self, seed: DistributedRelation):
        self.cluster = seed.cluster
        self.columns = seed.columns
        self._seen: set = set(seed.collect().rows)

    def __len__(self) -> int:
        return len(self._seen)

    def absorb(self, produced: DistributedRelation) -> DistributedRelation:
        if produced.cluster is not self.cluster:
            raise DistributionError("datasets live on different clusters")
        if produced.columns != self.columns:
            raise DistributionError(
                f"incompatible schemas {produced.columns} and {self.columns}")
        # new = phi(new) \ X    (global set difference: both sides shuffle)
        self.cluster.record_shuffle(produced.count() + len(self._seen))
        fresh: set = set()
        for partition in produced.partitions:
            fresh |= partition.rows - self._seen
        # X = X U new           (union + distinct: one more shuffle; X and
        # new are disjoint, so distinct() finds no duplicate to eliminate)
        self.cluster.record_shuffle(len(self._seen) + len(fresh))
        self._seen |= fresh
        return DistributedRelation.from_relation(
            self.cluster, Relation._from_trusted(self.columns, fresh))

    def relation(self) -> Relation:
        """The accumulated result, collected on the driver."""
        return Relation._from_trusted(self.columns, self._seen)


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
        union does not need to eliminate duplicates: one
        ``frozenset.union`` builds it.  (It sizes the table for the sum of
        the partitions, so :meth:`collect`, whose partitions overlap,
        copies a set instead: an oversized result stays as long as cached.)
        """
        first, *rest = self.partitions
        return Relation._from_trusted(
            self.columns, first.rows.union(*(p.rows for p in rest)))
