"""Distributed runtime: simulated cluster and physical fixpoint plans."""

from .cluster import DEFAULT_NUM_WORKERS, ClusterMetrics, SparkCluster
from .partitioner import (ROUND_ROBIN, STABLE_COLUMN, PartitioningDecision,
                          plan_partitioning, split_constant_part)
from .physical import AUTO, DistributedQueryExecutor, ExecutionOutcome
from .plans import (PGLD, PLAN_CLASSES, PPLW_SPARK, DistributedFixpointPlan,
                    GlobalLoopOnDriver, ParallelLocalLoops, make_plan)

__all__ = [
    "AUTO",
    "ClusterMetrics",
    "DEFAULT_NUM_WORKERS",
    "DistributedFixpointPlan",
    "DistributedQueryExecutor",
    "ExecutionOutcome",
    "GlobalLoopOnDriver",
    "PGLD",
    "PLAN_CLASSES",
    "PPLW_SPARK",
    "ParallelLocalLoops",
    "PartitioningDecision",
    "ROUND_ROBIN",
    "STABLE_COLUMN",
    "SparkCluster",
    "make_plan",
    "plan_partitioning",
    "split_constant_part",
]
