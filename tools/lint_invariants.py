#!/usr/bin/env python3
"""Repo-invariant lints the generic linters cannot express.

Two invariants keep the concurrency and immutability story of the
codebase honest; each maps to the runtime sanitizer check that would
catch its violation only when the bad path actually runs.  INV004 keeps
the semi-naive loop from being written out a second time, INV005 does
the same for the row interpreter, INV006 keeps task bodies from
encoding against a dictionary nobody else shares, INV007 keeps the
canonical row order in the one place that computes it once, INV008
keeps deleted designs deleted:

INV001  ``Relation`` internals (``_columns`` / ``_rows``) are assigned
        only inside ``src/repro/data/`` (the owning package) and
        ``src/repro/check/`` (the sanitizer's guard).  Everywhere else a
        relation is an immutable value; mutating it would tear snapshot
        isolation (the runtime counterpart is the sanitizer's
        post-freeze mutation guard).
INV002  No bare ``threading.Lock()`` / ``threading.RLock()`` outside
        ``src/repro/check/sanitizer.py``.  Locks must be created with
        ``ordered_lock(name)`` / ``ordered_rlock(name)`` so the
        sanitizer's lock-order tracker sees every acquisition site.
INV004  No ``while`` loop whose body calls ``.absorb(`` outside
        ``src/repro/algebra/fixpoint.py``.  That module holds the one
        semi-naive loop (guard, iteration span); every other layer
        passes it a step function and an accumulator.
INV005  No ``.natural_join(`` call under ``src/repro/`` outside
        ``data/`` (the operator's home), ``algebra/evaluate.py`` (the
        one row interpreter) and ``baselines/`` (independent reference
        systems).  A layer that joins rows itself is a second term
        interpreter in the making; hand the term to ``Evaluator``.
INV006  No ``snapshot_dictionary(`` call in a module-level function
        under ``src/repro/distributed/``.  Module-level functions there
        are task bodies, and a task sees a plain mapping, for which
        ``snapshot_dictionary`` hands out a *private* dictionary: every
        encoding memoized against the snapshot's would silently miss.
        Tasks take the dictionary as an argument from the plan that
        captured it.
INV007  No ``sorted(<x>.rows, key=repr)`` (or ``._rows``) under
        ``src/repro/`` outside ``data/relation.py``.  The canonical row
        order belongs to ``Relation.sorted_rows()``, which memoizes it
        on the (immutable, cache-shared) relation; an inline sort pays
        it again on every call.
INV008  No name from ``RETIRED_NAMES`` anywhere in a file's text
        (comments and strings included), outside this module.  Each
        entry lists the names of one deleted design next to the
        simplification that deleted it; a match is that design coming
        back.

Usage::

    python tools/lint_invariants.py [paths...]

Without paths it lints ``DEFAULT_SCOPE`` (``src``, ``examples``,
``benchmarks/bench_*.py`` and ``tools`` of this repository).  Exits 0
when clean, 1 with one ``path:line: [INVxxx] message`` per finding
otherwise.  Stdlib only; runs as a CI step next to ruff.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: Attributes of Relation that only its owning package may assign.
RELATION_INTERNALS = frozenset({"_columns", "_rows"})

ROOT = Path(__file__).resolve().parents[1]
#: What is linted when no path is given, relative to the repository root
#: (the tests, which plant violations on purpose, are left out).
DEFAULT_SCOPE = ("src", "examples", "benchmarks/bench_*.py", "tools")

#: INV008: ``(simplification, pattern)`` — the names each deleted design
#: went by, as one regular expression matched against every line.
RETIRED_NAMES: tuple[tuple[str, str], ...] = (
    ("one task path: no executor backends, pickling or trace handoff",
     r"ThreadExecutor|ProcessExecutor|EXECUTOR_BACKENDS|make_executor"
     r"|cloudpickle|TraceHandoff|current_handoff|run_traced_task"
     r"|report_unpicklable_task|executor="),
    ("one Pplw plan: no PostgreSQL variant, memory heuristic or plan "
     "generator",
     r"PPLW_POSTGRES|plw-postgres|ParallelLocalLoopsPostgres"
     r"|ParallelLocalLoopsSpark|tuples_marshalled|memory_per_task"
     r"|MEMORY_PER_TASK|fixpoint_to_sql|local_engine"
     r"|PhysicalPlanGenerator|SetRDD"),
    ("one metrics store: no serving accumulator beside the registry",
     r"ServiceMetrics|MetricsSnapshot|CacheStats|DEFAULT_SAMPLE_CAPACITY"
     r"|served_by_graph"),
    ("one configuration: no option that only tests set, no second async "
     "path",
     r"plan_cache_size=|result_cache_size=|configure_caches|submit_action"
     r"|stream_batch_size|continuation_capacity|continuation_ttl"
     r"|shuffle_latency=|shuffle_cost_per_tuple=|max_rounds="
     r"|max_iterations=|\.submit\(\)"),
    ("one plan phase: no plan write-back, second optimizer or unused "
     "front-end switch",
     r"with_strategies|use_magic|use_inverse_relations|\.optimize\("
     r"|def optimize\("),
    ("one fixpoint bind: no plan-side bind, task re-bind or evaluator "
     "join special case",
     r"DriverBind|LocalLoopOutcome|_bind_rows|_freeze_operands"
     r"|_seed_program|_warm_index|_constant_sides|record_index_event"),
    ("statistics belong to the relation: no copy-on-write statistics "
     "catalog or estimator staleness check",
     r"register_stats|_estimates_version|catalog\.refresh\("
     r"|catalog\.invalidate\(|catalog\.copy\("),
    ("one serving benchmark: no micro-benchmark beside the e2e workloads",
     r"_suspended|tracing\.suspended|latency_table|bench_service_throughput"
     r"|bench_net_throughput|bench_obs_overhead|BENCH_net"),
)
_RETIRED = [(simplification, re.compile(pattern))
            for simplification, pattern in RETIRED_NAMES]


def _is_relation_dir(path: Path) -> bool:
    parts = path.parts
    return "data" in parts and "repro" in parts


def _is_sanitizer(path: Path) -> bool:
    return path.name == "sanitizer.py" and "check" in path.parts


def _is_check_dir(path: Path) -> bool:
    return "check" in path.parts and "repro" in path.parts


def _is_distributed_dir(path: Path) -> bool:
    return "distributed" in path.parts and "repro" in path.parts


class _Findings:
    def __init__(self) -> None:
        self.items: list[tuple[Path, int, str, str]] = []

    def add(self, path: Path, line: int, code: str, message: str) -> None:
        self.items.append((path, line, code, message))


def _check_relation_internals(tree: ast.AST, path: Path,
                              findings: _Findings) -> None:
    """INV001: assignments to Relation internals outside data/ and check/."""
    if _is_relation_dir(path) or _is_check_dir(path):
        return

    def flag(target: ast.expr) -> None:
        if isinstance(target, ast.Attribute) \
                and target.attr in RELATION_INTERNALS:
            findings.add(path, target.lineno, "INV001",
                         f"assignment to relation internal "
                         f"{target.attr!r} outside src/repro/data/ "
                         f"(relations are immutable values elsewhere)")

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign)
                       else node.targets)
            for target in targets:
                flag(target)
        elif isinstance(node, ast.Call):
            # object.__setattr__(relation, "_rows", ...) is the same
            # mutation wearing a trench coat.
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr == "__setattr__" and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) \
                    and node.args[1].value in RELATION_INTERNALS:
                findings.add(path, node.lineno, "INV001",
                             f"__setattr__ of relation internal "
                             f"{node.args[1].value!r} outside "
                             f"src/repro/data/")


def _check_bare_locks(tree: ast.AST, path: Path,
                      findings: _Findings) -> None:
    """INV002: only the sanitizer module constructs raw threading locks."""
    if _is_sanitizer(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "threading" \
                and func.attr in ("Lock", "RLock"):
            name = f"threading.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in ("Lock", "RLock"):
            name = func.id
        if name is not None:
            findings.add(path, node.lineno, "INV002",
                         f"bare {name}() — use ordered_lock(name) / "
                         f"ordered_rlock(name) from repro.check.sanitizer "
                         f"so the lock-order tracker covers it")


def _check_fixpoint_loops(tree: ast.AST, path: Path,
                          findings: _Findings) -> None:
    """INV004: the semi-naive loop lives in algebra/fixpoint.py only."""
    if path.name == "fixpoint.py" and "algebra" in path.parts:
        return
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.While):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "absorb":
                findings.add(path, node.lineno, "INV004",
                             "absorb() inside a while loop: pass a step "
                             "and an accumulator to "
                             "repro.algebra.fixpoint.semi_naive instead "
                             "of writing the semi-naive loop out again")


def _check_row_interpreters(tree: ast.AST, path: Path,
                            findings: _Findings) -> None:
    """INV005: only the evaluator applies the row join operator."""
    parts = path.parts
    if "repro" not in parts or _is_relation_dir(path) \
            or "baselines" in parts \
            or (path.name == "evaluate.py" and "algebra" in parts):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "natural_join":
            findings.add(path, node.lineno, "INV005",
                         "natural_join() outside data/ and "
                         "algebra/evaluate.py: build the term and let "
                         "repro.algebra.evaluate.Evaluator apply the "
                         "operators instead of interpreting rows here")


def _check_task_dictionaries(tree: ast.Module, path: Path,
                             findings: _Findings) -> None:
    """INV006: task bodies receive the value dictionary, never look it up."""
    if not _is_distributed_dir(path):
        return
    for function in tree.body:
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) \
                else func.attr if isinstance(func, ast.Attribute) else None
            if name == "snapshot_dictionary":
                findings.add(path, node.lineno, "INV006",
                             f"snapshot_dictionary() in module-level "
                             f"function {function.name}(): a task gets a "
                             f"private dictionary for the plain mapping it "
                             f"sees; take the plan's dictionary as an "
                             f"argument instead")


def _check_canonical_order(tree: ast.AST, path: Path,
                           findings: _Findings) -> None:
    """INV007: only Relation.sorted_rows() sorts a relation's rows."""
    if "repro" not in path.parts \
            or (path.name == "relation.py" and "data" in path.parts):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "sorted" and node.args \
                and isinstance(node.args[0], ast.Attribute) \
                and node.args[0].attr in ("rows", "_rows") \
                and any(keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == "repr"
                        for keyword in node.keywords):
            findings.add(path, node.lineno, "INV007",
                         "sorted(….rows, key=repr): read "
                         "Relation.sorted_rows(), which computes the "
                         "canonical order once per relation")


def _check_retired_names(source: str, path: Path,
                         findings: _Findings) -> None:
    """INV008: no deleted design's names come back."""
    if path.resolve() == Path(__file__).resolve():
        return
    for line_number, line in enumerate(source.splitlines(), start=1):
        for simplification, pattern in _RETIRED:
            match = pattern.search(line)
            if match:
                findings.add(path, line_number, "INV008",
                             f"retired name {match.group()!r} "
                             f"({simplification})")


def lint_file(path: Path, findings: _Findings) -> None:
    source = path.read_text(encoding="utf-8")
    _check_retired_names(source, path, findings)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        findings.add(path, error.lineno or 0, "INV000",
                     f"syntax error: {error.msg}")
        return
    _check_relation_internals(tree, path, findings)
    _check_bare_locks(tree, path, findings)
    _check_fixpoint_loops(tree, path, findings)
    _check_row_interpreters(tree, path, findings)
    _check_task_dictionaries(tree, path, findings)
    _check_canonical_order(tree, path, findings)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [
        path for pattern in DEFAULT_SCOPE for path in sorted(ROOT.glob(pattern))]
    findings = _Findings()
    count = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            count += 1
            lint_file(file, findings)
    for path, line, code, message in findings.items:
        print(f"{path}:{line}: [{code}] {message}")
    if findings.items:
        print(f"{len(findings.items)} invariant violation(s) "
              f"in {count} file(s)", file=sys.stderr)
        return 1
    print(f"ok: {count} file(s), 0 invariant violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
