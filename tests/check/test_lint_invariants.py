"""The repo-invariant lint tool (``tools/lint_invariants.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_invariants.py"

VIOLATING = '''
def closure(step, accumulator, frontier):
    while frontier:
        frontier = accumulator.absorb(step(frontier))
'''

CLEAN = '''
def resume(step, accumulator, constant, frontier):
    frontier = accumulator.absorb(constant)      # seeding, not a loop
    while frontier:
        frontier = step(frontier)
'''

JOINING = '''
def step(partition, broadcast):
    return partition.natural_join(broadcast)
'''

DELEGATING = '''
def step(term, var, partition):
    return Evaluator({}).evaluate(term, env={var: partition})
'''

LOOKING_UP = '''
def run_task(database, chunk):
    return chunk.columnar(snapshot_dictionary(database))
'''

RECEIVING = '''
class Plan:
    def __init__(self, database):
        self._dictionary = snapshot_dictionary(database)

def run_task(dictionary, chunk):
    return chunk.columnar(dictionary)
'''

SORTING = '''
def payload(relation):
    return [list(row) for row in sorted(relation.rows, key=repr)]
'''

READING = '''
def payload(relation, graph):
    labels = sorted(graph.labels, key=repr)       # not a relation's rows
    by_size = sorted(relation.rows, key=len)      # not the canonical order
    return [list(row) for row in relation.sorted_rows()], labels, by_size
'''


#: One name per ``RETIRED_NAMES`` entry, in the table's order.
RETIRED = (
    "backend = ThreadExecutor(4)",
    "from repro.distributed.plans import PPLW_POSTGRES",
    "metrics = ServiceMetrics()",
    "Session(graph, plan_cache_size=8)",
    "term = optimizer.optimize(term)",
    "bind = DriverBind(fixpoint)",
    "snapshot.catalog.refresh(name, relation)",
    "(RESULTS_DIR / \"BENCH_net.json\").write_text(report)",
    "Session(graph, enable_result_cache=False)",
    "self._decompositions = {}",
)


def load_tool():
    spec = importlib.util.spec_from_file_location("lint_invariants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def lint(tmp_path: Path, relative: str, source: str) -> list[str]:
    tool = load_tool()
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    findings = tool._Findings()
    tool.lint_file(path, findings)
    return [code for _, _, code, _ in findings.items]


def test_inv004_flags_a_hand_written_semi_naive_loop(tmp_path):
    assert lint(tmp_path, "src/repro/service/maintain.py",
                VIOLATING) == ["INV004"]


def test_inv004_allows_seeding_calls_and_the_driver_module(tmp_path):
    assert lint(tmp_path, "src/repro/service/maintain.py", CLEAN) == []
    assert lint(tmp_path, "src/repro/algebra/fixpoint.py", VIOLATING) == []


def test_inv005_flags_a_row_join_outside_the_evaluator(tmp_path):
    assert lint(tmp_path, "src/repro/distributed/rdd.py",
                JOINING) == ["INV005"]


def test_inv005_allows_delegation_and_the_operator_homes(tmp_path):
    assert lint(tmp_path, "src/repro/distributed/rdd.py", DELEGATING) == []
    for home in ("data/relation.py", "algebra/evaluate.py",
                 "baselines/datalog/engine.py"):
        assert lint(tmp_path, f"src/repro/{home}", JOINING) == []


def test_inv006_flags_a_task_body_looking_the_dictionary_up(tmp_path):
    assert lint(tmp_path, "src/repro/distributed/plans.py",
                LOOKING_UP) == ["INV006"]


def test_inv006_allows_plans_capturing_it_and_other_packages(tmp_path):
    assert lint(tmp_path, "src/repro/distributed/plans.py", RECEIVING) == []
    assert lint(tmp_path, "src/repro/algebra/evaluate.py", LOOKING_UP) == []


def test_inv007_flags_an_inline_canonical_sort(tmp_path):
    assert lint(tmp_path, "src/repro/net/server.py", SORTING) == ["INV007"]
    assert lint(tmp_path, "src/repro/data/io.py",
                SORTING.replace(".rows", "._rows")) == ["INV007"]


def test_inv007_allows_the_owner_and_other_sorts(tmp_path):
    assert lint(tmp_path, "src/repro/net/server.py", READING) == []
    assert lint(tmp_path, "src/repro/data/relation.py", SORTING) == []


def test_inv008_flags_one_name_of_every_retired_design(tmp_path):
    table = load_tool().RETIRED_NAMES
    assert len(RETIRED) == len(table)
    for planted, (simplification, _) in zip(RETIRED, table):
        source = f"# {simplification}\n{planted}\n"
        assert lint(tmp_path, "examples/tour.py", source) == ["INV008"], \
            planted


def test_inv008_spares_the_table_itself():
    tool = load_tool()
    findings = tool._Findings()
    tool.lint_file(TOOL, findings)
    assert findings.items == []
