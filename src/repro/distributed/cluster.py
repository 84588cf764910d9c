"""Simulated Spark cluster: driver, workers and communication accounting.

The original system runs on a Spark cluster; the claims of the paper are
about *where* the recursion loop runs (driver vs. workers) and *how much
data crosses the network* per iteration.  This module provides the
substrate for reproducing those claims in-process:

* a :class:`SparkCluster` with a configurable number of workers,
* :class:`ClusterMetrics` counting shuffles, shuffled tuples, broadcasts,
  launched tasks, and iteration counts (global driver iterations vs. local
  worker iterations),
* an optional *communication cost model* turning those counters into a
  simulated time penalty so that plans that shuffle at every iteration are
  measurably slower, as on a real cluster.

The execution itself is faithful to the dataflow: work is performed
partition by partition, and any operation that would need a repartition on
Spark goes through :meth:`SparkCluster.record_shuffle`.

Per-partition work goes through :meth:`SparkCluster.run_tasks`, which
runs one wave of tasks in submission order on the calling thread and
times each task with :func:`time.thread_time`.  Every task wave is
accounted the same way shuffles are: the task seconds are attributed to
worker slots round robin (task *i* on worker ``i % num_workers``), so
:attr:`ClusterMetrics.max_worker_seconds` is the busiest worker of the
simulated schedule and :meth:`ClusterMetrics.compute_skew` its straggler
factor.  The in-order wave costs the sum of its tasks; the wall time
measured beyond that (loop overhead, waiting for the CPU) is taken back
out through :attr:`SparkCluster.simulated_executor_adjustment`.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..check.sanitizer import ordered_lock
from ..errors import DistributionError

#: Default number of workers, mirroring the 4-machine cluster of the paper.
DEFAULT_NUM_WORKERS = 4

#: Per-tuple cost (in simulated seconds) of a network shuffle.  The
#: value is intentionally tiny: it nudges reported times in the direction a
#: real network would, without drowning the actual computation time.  The
#: delay is *accounted*, never slept: executions stay fast and the benchmark
#: harness adds :attr:`SparkCluster.simulated_communication_delay` to the
#: wall-clock time it reports.
DEFAULT_SHUFFLE_COST_PER_TUPLE = 2e-6
#: Fixed cost of initiating a shuffle (barrier + scheduling).
DEFAULT_SHUFFLE_LATENCY = 0.02


def _max_over_mean(loads) -> float:
    """Imbalance factor of a load distribution (1.0 when perfectly even)."""
    loads = list(loads)
    total = sum(loads)
    if not loads or total == 0:
        return 1.0
    return max(loads) * len(loads) / total


@dataclass
class ClusterMetrics:
    """Counters describing one distributed execution."""

    shuffles: int = 0
    tuples_shuffled: int = 0
    broadcasts: int = 0
    tuples_broadcast: int = 0
    tasks_launched: int = 0
    global_iterations: int = 0
    local_iterations: int = 0
    tuples_processed_per_worker: dict[int, int] = field(default_factory=dict)
    duplicates_eliminated: int = 0
    final_union_skipped: bool = False
    partitioning: str = "none"
    #: Number of task waves (one wave = one batch of per-partition tasks).
    task_waves: int = 0
    #: CPU seconds of task work accumulated per worker slot.
    task_seconds_per_worker: dict[int, float] = field(default_factory=dict)
    #: CPU seconds of the single slowest task seen (the straggler).
    slowest_task_seconds: float = 0.0
    #: Storage-layer hash indexes built during the execution vs. served
    #: from a relation's memoized cache (see Relation.index_on): a high
    #: reuse count is the signature of the delta-aware storage engine —
    #: loop-invariant relations are hashed once, then only probed.
    index_builds: int = 0
    index_reuses: int = 0

    def record_worker_tuples(self, worker_id: int, count: int) -> None:
        current = self.tuples_processed_per_worker.get(worker_id, 0)
        self.tuples_processed_per_worker[worker_id] = current + count

    def publish(self, registry, graph: str = "") -> None:
        """Accumulate this execution's counters into a
        :class:`~repro.obs.metrics.MetricsRegistry`.

        Called by the session after each execution, so the per-execution
        (reset) counters here become monotonic totals there.
        """
        for name, amount in (
            ("repro_shuffles_total", self.shuffles),
            ("repro_tuples_shuffled_total", self.tuples_shuffled),
            ("repro_broadcasts_total", self.broadcasts),
            ("repro_tuples_broadcast_total", self.tuples_broadcast),
            ("repro_tasks_launched_total", self.tasks_launched),
            ("repro_fixpoint_global_iterations_total", self.global_iterations),
            ("repro_fixpoint_local_iterations_total", self.local_iterations),
            ("repro_index_builds_total", self.index_builds),
            ("repro_index_reuses_total", self.index_reuses),
        ):
            if amount:
                registry.counter(name, graph=graph).inc(amount)

    @property
    def total_tuples_processed(self) -> int:
        return sum(self.tuples_processed_per_worker.values())

    def skew(self) -> float:
        """Load imbalance: max worker load divided by the mean load."""
        return _max_over_mean(self.tuples_processed_per_worker.values())

    @property
    def max_worker_seconds(self) -> float:
        """Wall time of the busiest worker slot (CPU seconds of its tasks)."""
        if not self.task_seconds_per_worker:
            return 0.0
        return max(self.task_seconds_per_worker.values())

    @property
    def total_task_seconds(self) -> float:
        """CPU seconds summed over every task of the execution."""
        return sum(self.task_seconds_per_worker.values())

    def compute_skew(self) -> float:
        """Straggler factor: busiest worker's seconds over the mean."""
        return _max_over_mean(self.task_seconds_per_worker.values())

    def summary(self) -> dict[str, object]:
        """A dictionary view used by the benchmark reports."""
        return {
            "shuffles": self.shuffles,
            "tuples_shuffled": self.tuples_shuffled,
            "broadcasts": self.broadcasts,
            "tuples_broadcast": self.tuples_broadcast,
            "tasks_launched": self.tasks_launched,
            "global_iterations": self.global_iterations,
            "local_iterations": self.local_iterations,
            "duplicates_eliminated": self.duplicates_eliminated,
            "final_union_skipped": self.final_union_skipped,
            "partitioning": self.partitioning,
            "total_tuples_processed": self.total_tuples_processed,
            "skew": round(self.skew(), 3),
            "task_waves": self.task_waves,
            "max_worker_seconds": round(self.max_worker_seconds, 6),
            "total_task_seconds": round(self.total_task_seconds, 6),
            "slowest_task_seconds": round(self.slowest_task_seconds, 6),
            "compute_skew": round(self.compute_skew(), 3),
            "index_builds": self.index_builds,
            "index_reuses": self.index_reuses,
        }


class SparkCluster:
    """The simulated cluster a distributed execution runs on."""

    def __init__(self, num_workers: int = DEFAULT_NUM_WORKERS):
        if num_workers <= 0:
            raise DistributionError("a cluster needs at least one worker")
        self.num_workers = num_workers
        self.metrics = ClusterMetrics()
        self._simulated_delay = 0.0
        self._executor_adjustment = 0.0
        # Metrics are normally mutated on the driver thread only (tasks are
        # pure and report back via their return values); the lock guards the
        # record_* entry points for task code that calls them anyway.
        self._lock = ordered_lock("cluster.metrics")

    # -- Task execution --------------------------------------------------------

    def run_tasks(self, fn: Callable, args_list: Sequence[tuple]) -> list:
        """Run one wave of independent tasks, in order, on this thread.

        Returns ``fn(*args)`` for every args tuple in submission order (the
        first exception propagates) and accounts the wave in the metrics
        (task count, per-worker seconds, straggler).
        """
        values = []
        task_seconds = []
        wave_started = time.perf_counter()
        for args in args_list:
            started = time.thread_time()
            values.append(fn(*args))
            task_seconds.append(time.thread_time() - started)
        self.record_task_wave(task_seconds,
                              time.perf_counter() - wave_started)
        return values

    # -- Metric recording ------------------------------------------------------

    def reset_metrics(self) -> None:
        """Clear the metrics before a new execution."""
        with self._lock:
            self.metrics = ClusterMetrics()
            self._simulated_delay = 0.0
            self._executor_adjustment = 0.0

    def record_shuffle(self, tuple_count: int) -> None:
        """Record one repartitioning of ``tuple_count`` tuples."""
        with self._lock:
            self.metrics.shuffles += 1
            self.metrics.tuples_shuffled += tuple_count
            self._simulated_delay += (
                DEFAULT_SHUFFLE_LATENCY
                + tuple_count * DEFAULT_SHUFFLE_COST_PER_TUPLE)

    def record_broadcast(self, tuple_count: int) -> None:
        """Record the broadcast of a relation to every worker."""
        with self._lock:
            self.metrics.broadcasts += 1
            self.metrics.tuples_broadcast += tuple_count * self.num_workers
            self._simulated_delay += (tuple_count * self.num_workers
                                      * DEFAULT_SHUFFLE_COST_PER_TUPLE)

    def record_tasks(self, count: int) -> None:
        with self._lock:
            self.metrics.tasks_launched += count

    def record_task_wave(self, task_seconds: Sequence[float],
                         wave_elapsed: float | None = None) -> None:
        """Account one wave of tasks: counters, per-worker time, straggler.

        ``wave_elapsed`` is the wall time the wave actually took on the host;
        the in-order wave's makespan is the sum of its tasks, and the
        difference between the two is accumulated into
        :attr:`simulated_executor_adjustment`.
        """
        with self._lock:
            self.metrics.tasks_launched += len(task_seconds)
            self.metrics.task_waves += 1
            for index, seconds in enumerate(task_seconds):
                slot = index % self.num_workers
                current = self.metrics.task_seconds_per_worker.get(slot, 0.0)
                self.metrics.task_seconds_per_worker[slot] = current + seconds
                if seconds > self.metrics.slowest_task_seconds:
                    self.metrics.slowest_task_seconds = seconds
            if wave_elapsed is not None:
                self._executor_adjustment += sum(task_seconds) - wave_elapsed

    def record_worker_tuples(self, worker_id: int, count: int) -> None:
        with self._lock:
            self.metrics.record_worker_tuples(worker_id, count)

    @property
    def simulated_communication_delay(self) -> float:
        """Total simulated network delay accumulated so far (seconds)."""
        return self._simulated_delay

    @property
    def simulated_executor_adjustment(self) -> float:
        """Simulated-makespan correction for the task waves run so far.

        The summed task seconds minus the waves' measured wall time:
        negative in practice, since a wave's wall time also covers the
        loop around its tasks and any time the thread waited for the CPU.
        """
        return self._executor_adjustment

    @property
    def reported_time_adjustment(self) -> float:
        """What the benchmark harness adds to the measured wall time."""
        return self._simulated_delay + self._executor_adjustment

    def __repr__(self) -> str:
        return f"SparkCluster(num_workers={self.num_workers})"
