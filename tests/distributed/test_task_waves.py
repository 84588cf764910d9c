"""Unit tests of the one task path: ``SparkCluster.run_tasks`` runs a wave
in order on the calling thread, and ``record_task_wave`` accounts it."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.distributed import SparkCluster
from repro.distributed.cluster import (DEFAULT_SHUFFLE_COST_PER_TUPLE,
                                      DEFAULT_SHUFFLE_LATENCY)


def _square(value):
    return value * value


def test_importing_repro_loads_no_process_pool():
    """No task leaves the driver, so nothing imports a process pool."""
    probe = ("import sys, repro; "
             "print(sorted({'multiprocessing', 'cloudpickle'} "
             "& set(sys.modules)))")
    source = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": source}
    loaded = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True, env=env).stdout
    assert loaded.strip() == "[]"


class TestRunTasks:
    def test_results_preserve_submission_order(self):
        cluster = SparkCluster(num_workers=3)
        assert cluster.run_tasks(_square, [(i,) for i in range(8)]) \
            == [i * i for i in range(8)]

    def test_first_task_exception_propagates(self):
        ran = []

        def task(value):
            ran.append(value)
            if value >= 1:
                raise ValueError(f"task {value} failed")
            return value

        with pytest.raises(ValueError, match="task 1 failed"):
            SparkCluster(num_workers=2).run_tasks(task, [(0,), (1,), (2,)])
        assert ran == [0, 1]

    def test_tasks_run_on_the_calling_thread(self):
        caller = threading.get_ident()
        threads = SparkCluster(num_workers=4).run_tasks(
            lambda _: threading.get_ident(), [(i,) for i in range(4)])
        assert threads == [caller] * 4

    def test_a_failed_wave_is_not_recorded(self):
        def task(value):
            if value == 1:
                raise ValueError("boom")
            return value

        cluster = SparkCluster(num_workers=2)
        with pytest.raises(ValueError):
            cluster.run_tasks(task, [(0,), (1,)])
        assert cluster.metrics.tasks_launched == 0
        assert cluster.metrics.task_waves == 0

    def test_an_empty_wave_counts_as_a_wave_of_no_tasks(self):
        cluster = SparkCluster(num_workers=2)
        assert cluster.run_tasks(_square, []) == []
        assert cluster.metrics.task_waves == 1
        assert cluster.metrics.tasks_launched == 0
        assert cluster.metrics.task_seconds_per_worker == {}

    def test_task_seconds_are_thread_cpu_seconds(self):
        """A task that waits is charged its CPU time, not its wall time:
        the simulated schedule times the work, not the host's scheduling."""
        cluster = SparkCluster(num_workers=1)
        cluster.run_tasks(time.sleep, [(0.05,)])
        assert cluster.metrics.total_task_seconds < 0.05

    def test_waves_accumulate_until_reset(self):
        cluster = SparkCluster(num_workers=2)
        cluster.run_tasks(_square, [(1,), (2,), (3,)])
        cluster.run_tasks(_square, [(4,)])
        assert cluster.metrics.task_waves == 2
        assert cluster.metrics.tasks_launched == 4

    def test_run_tasks_records_the_wave(self):
        cluster = SparkCluster(num_workers=3)
        cluster.run_tasks(_square, [(i,) for i in range(5)])
        metrics = cluster.metrics
        assert metrics.tasks_launched == 5
        assert metrics.task_waves == 1
        assert set(metrics.task_seconds_per_worker) == {0, 1, 2}
        assert all(seconds >= 0.0
                   for seconds in metrics.task_seconds_per_worker.values())
        assert metrics.slowest_task_seconds <= metrics.max_worker_seconds
        assert metrics.max_worker_seconds <= metrics.total_task_seconds

    def test_metrics_summary_includes_task_fields(self):
        cluster = SparkCluster(num_workers=2)
        cluster.run_tasks(_square, [(1,), (2,)])
        summary = cluster.metrics.summary()
        for key in ("task_waves", "max_worker_seconds", "total_task_seconds",
                    "slowest_task_seconds", "compute_skew"):
            assert key in summary


class TestRecordTaskWave:
    def test_in_order_makespan_is_the_sum(self):
        cluster = SparkCluster(num_workers=4)
        cluster.record_task_wave([1.0, 2.0, 3.0, 4.0], wave_elapsed=10.0)
        # One lane: the wave completes after the sum of its tasks, which
        # is what it measured, so nothing is adjusted.
        assert cluster.simulated_executor_adjustment == pytest.approx(0.0)
        # The simulated schedule: one task per worker, the straggler last.
        assert cluster.metrics.max_worker_seconds == pytest.approx(4.0)
        assert cluster.metrics.slowest_task_seconds == pytest.approx(4.0)
        assert cluster.metrics.total_task_seconds == pytest.approx(10.0)

    def test_one_task_per_worker_fills_each_slot_once(self):
        cluster = SparkCluster(num_workers=4)
        cluster.record_task_wave([1.0, 2.0, 3.0, 4.0])
        assert cluster.metrics.task_seconds_per_worker \
            == pytest.approx({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})

    def test_host_overhead_makes_the_adjustment_negative(self):
        cluster = SparkCluster(num_workers=2)
        cluster.record_task_wave([1.0, 1.0], wave_elapsed=2.5)
        cluster.record_task_wave([0.5], wave_elapsed=0.75)
        assert cluster.simulated_executor_adjustment \
            == pytest.approx(-0.5 - 0.25)

    def test_a_wave_without_elapsed_time_adjusts_nothing(self):
        cluster = SparkCluster(num_workers=2)
        cluster.record_task_wave([1.0, 2.0])
        assert cluster.simulated_executor_adjustment == 0.0
        assert cluster.metrics.slowest_task_seconds == pytest.approx(2.0)

    def test_tasks_beyond_the_worker_count_share_slots(self):
        cluster = SparkCluster(num_workers=2)
        cluster.record_task_wave([1.0, 2.0, 3.0, 4.0])
        assert cluster.metrics.task_seconds_per_worker \
            == pytest.approx({0: 4.0, 1: 6.0})
        assert cluster.metrics.max_worker_seconds == pytest.approx(6.0)

    def test_compute_skew_of_unbalanced_workers(self):
        cluster = SparkCluster(num_workers=2)
        cluster.record_task_wave([3.0, 1.0])
        assert cluster.metrics.compute_skew() == pytest.approx(1.5)

    def test_reported_adjustment_combines_network_and_compute(self):
        cluster = SparkCluster(num_workers=4)
        cluster.record_shuffle(100)
        cluster.record_task_wave([2.0, 2.0], wave_elapsed=4.25)
        network = DEFAULT_SHUFFLE_LATENCY + 100 * DEFAULT_SHUFFLE_COST_PER_TUPLE
        assert cluster.reported_time_adjustment \
            == pytest.approx(network + (4.0 - 4.25))

    def test_reset_clears_wave_accounting(self):
        cluster = SparkCluster(num_workers=4)
        cluster.record_task_wave([1.0, 2.0], wave_elapsed=3.5)
        cluster.reset_metrics()
        assert cluster.simulated_executor_adjustment == 0.0
        assert cluster.metrics.task_waves == 0
        assert cluster.metrics.task_seconds_per_worker == {}
