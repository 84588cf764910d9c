"""``BENCHMARK.json``, the one command and ``compare.py`` agree on names."""

import json
import re
import subprocess
import sys

import pytest

from e2e import compare
from e2e.contract import BENCHMARK_JSON, HERE, REPO_ROOT, load_contract
from e2e.results import COUNTS, DIFFERENCES, DURATIONS, RATIOS
from e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def contract():
    return load_contract()


def test_benchmark_json_meets_the_driver_contract(contract):
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(declared) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    assert declared["paths"] == [str(HERE.relative_to(REPO_ROOT))]
    assert declared["command"][-1].startswith(declared["paths"][0] + "/")
    names = []
    for workload in declared["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert UNIT.match(metric["unit"]), metric
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = contract.end_to_end["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in contract.end_to_end.values())
    assert BENCHMARK_JSON.stat().st_size <= 64 * 1024


def test_declared_workloads_are_the_implemented_ones(contract):
    assert list(contract.workloads) == list(WORKLOADS)


def test_every_span_metric_is_declared(contract):
    folded = [*DURATIONS.values(), *DIFFERENCES, *COUNTS.values(), *RATIOS]
    assert len(folded) == len(set(folded))
    assert set(folded) <= set(contract.per_layer)


def test_one_round_smoke_emits_exactly_the_declared_metrics(contract,
                                                            tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bind-selective",
         "--rounds", "1", "--seed", "11", "--out", str(out)],
        capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 100
    declared = {**contract.end_to_end, **contract.per_layer}
    assert set(result["metrics"]) == set(declared)
    for name, reported in result["metrics"].items():
        assert reported["unit"] == declared[name].unit
        assert isinstance(reported["value"], (int, float))
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("bind-selective ")}
    assert printed == {name: m.unit for name, m in declared.items()}
    assert all(result["metrics"][name]["value"] > 0
               for name in contract.end_to_end)
    record = json.loads(out.read_text())["workloads"]["bind-selective"]
    assert record["rounds"] == 1 and record["seed"] == 11
    assert set(record["metrics"]) == set(declared)
    assert record["metrics"]["failed_ops_share"] == 0
    assert record["metrics"]["session.plan_cache_hit_ratio"] == 1.0
    spans = [json.loads(line) for line in
             (tmp_path / "trace_bind-selective.jsonl").read_text().splitlines()]
    assert {"op", "session.bind", "distributed.execute", "probe",
            "algebra.evaluate"} == {span["name"] for span in spans}
    assert all(span["end"] >= span["start"] and span["factor"] > 0
               for span in spans)


def record(unstable=False, **metrics):
    return {"workloads": {"http-hot": {"unstable": unstable,
                                       "metrics": metrics}}}


def test_compare_verdicts(contract):
    base = record(throughput_ops_s=100.0, latency_p50_ms=2.0,
                  comm_rows_per_op=10.0)
    new = record(throughput_ops_s=150.0, latency_p50_ms=2.05,
                 comm_rows_per_op=11.0)
    rows = {row[1]: row for row in compare.compare(base, new, contract)}
    assert rows["throughput_ops_s"][4] == pytest.approx(1.5)
    assert rows["throughput_ops_s"][6] == compare.BETTER
    assert rows["latency_p50_ms"][6] == compare.SAME
    assert rows["comm_rows_per_op"][6] == compare.WORSE      # exact count
    slower = record(throughput_ops_s=50.0, latency_p50_ms=4.0)
    rows = {row[1]: row for row in compare.compare(base, slower, contract)}
    assert rows["throughput_ops_s"][6] == compare.WORSE
    assert rows["latency_p50_ms"][6] == compare.WORSE
    assert rows["comm_rows_per_op"][6] == compare.UNRESOLVED  # missing
    shaky = record(unstable=True, throughput_ops_s=100.0)
    rows = {row[1]: row for row in compare.compare(base, shaky, contract)}
    assert rows["throughput_ops_s"][6] == compare.UNRESOLVED
