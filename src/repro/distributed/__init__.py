"""Distributed runtime: simulated cluster, RDDs, physical fixpoint plans."""

from .cluster import (DEFAULT_NUM_WORKERS, ClusterMetrics, SparkCluster,
                      Worker)
from .executor import (EXECUTOR_BACKENDS, PROCESSES, SERIAL, THREADS,
                       ExecutorBackend, ProcessExecutor, SerialExecutor,
                       TaskOutcome, ThreadExecutor, make_executor)
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
    "EXECUTOR_BACKENDS",
    "ExecutionOutcome",
    "ExecutorBackend",
    "GlobalLoopOnDriver",
    "PGLD",
    "PLAN_CLASSES",
    "PPLW_POSTGRES",
    "PPLW_SPARK",
    "PROCESSES",
    "ParallelLocalLoops",
    "ParallelLocalLoopsPostgres",
    "ParallelLocalLoopsSpark",
    "PartitioningDecision",
    "PhysicalPlan",
    "PhysicalPlanGenerator",
    "ProcessExecutor",
    "ROUND_ROBIN",
    "SERIAL",
    "STABLE_COLUMN",
    "SerialExecutor",
    "SetRDD",
    "SparkCluster",
    "THREADS",
    "TaskOutcome",
    "ThreadExecutor",
    "Worker",
    "fixpoint_to_sql",
    "make_executor",
    "make_plan",
    "plan_partitioning",
    "split_constant_part",
]
