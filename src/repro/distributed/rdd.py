"""Partitioned datasets: BigDatalog's SetRDD.

``Pplw`` holds the workers' local fixpoints in a :class:`SetRDD`: every
partition is the *set* one worker's local fixpoint produced, so the
final union needs at most one shuffle, and none when the partitions are
provably disjoint.  (``Pgld``'s per-iteration datasets are not objects:
its loop, in :mod:`repro.distributed.plans`, deals each delta into
partitions and holds the accumulated result once, on the driver.)

Relational operators are not applied here: a partition task evaluates its
term with the shared engines (:mod:`repro.distributed.plans`).
"""

from __future__ import annotations

from ..data.relation import Relation
from ..errors import DistributionError
from .cluster import SparkCluster


class SetRDD:
    """An RDD whose partitions are sets (BigDatalog's abstraction), one
    per worker.

    ``Pplw`` holds the workers' local fixpoints in one: every worker ran
    its own complete loop, so nothing looked at another partition during
    the recursion and only the final union may need a shuffle.
    """

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

    def count(self) -> int:
        return sum(len(partition) for partition in self.partitions)

    __len__ = count

    def collect(self) -> Relation:
        """Bring every partition back to the driver (deduplicating)."""
        rows: set = set()
        for partition in self.partitions:
            rows.update(partition.rows)
        return Relation._from_trusted(self.columns, rows)

    def __repr__(self) -> str:
        sizes = [len(partition) for partition in self.partitions]
        return (f"{type(self).__name__}(partitions={sizes}, "
                f"columns={list(self.columns)})")

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
