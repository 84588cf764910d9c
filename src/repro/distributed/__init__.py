"""Distributed runtime: simulated cluster, RDDs, physical fixpoint plans."""

from .cluster import (DEFAULT_NUM_WORKERS, ClusterMetrics, SparkCluster,
                      Worker)
from .local_engine import fixpoint_to_sql
from .partitioner import (ROUND_ROBIN, STABLE_COLUMN, PartitioningDecision,
                          plan_partitioning, split_constant_part)
from .physical import (AUTO, DEFAULT_MEMORY_PER_TASK, DistributedQueryExecutor,
                       ExecutionOutcome, PhysicalPlan, PhysicalPlanGenerator)
from .plans import (PGLD, PLAN_CLASSES, PPLW_POSTGRES, PPLW_SPARK,
                    DistributedFixpointPlan, GlobalLoopOnDriver,
                    ParallelLocalLoops, ParallelLocalLoopsPostgres,
                    ParallelLocalLoopsSpark, make_plan)
from .rdd import SetRDD

__all__ = [
    "AUTO",
    "ClusterMetrics",
    "DEFAULT_MEMORY_PER_TASK",
    "DEFAULT_NUM_WORKERS",
    "DistributedFixpointPlan",
    "DistributedQueryExecutor",
    "ExecutionOutcome",
    "GlobalLoopOnDriver",
    "PGLD",
    "PLAN_CLASSES",
    "PPLW_POSTGRES",
    "PPLW_SPARK",
    "ParallelLocalLoops",
    "ParallelLocalLoopsPostgres",
    "ParallelLocalLoopsSpark",
    "PartitioningDecision",
    "PhysicalPlan",
    "PhysicalPlanGenerator",
    "ROUND_ROBIN",
    "STABLE_COLUMN",
    "SetRDD",
    "SparkCluster",
    "Worker",
    "fixpoint_to_sql",
    "make_plan",
    "plan_partitioning",
    "split_constant_part",
]
