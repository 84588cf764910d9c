"""Expected answers, computed independently of the path under test.

For every distinct (query, binding, database state) of a workload the
oracle evaluates the selected plan with the centralized evaluator on the
row engine — no distribution, no columnar kernels, no result cache — and
keeps the rows.  (The unoptimized translation would be more independent
still, but takes 6 to 18 s per workload against 0.3 to 1.5 s.)  Every
warm, measured and traced response is compared against them outside the
timed region.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import Session
from repro.data.columnar import row_mode

from .workloads import (ADD, ADDED, BIND, HTTP, QUERY, REMOVE, WRITES,
                        Dataset, Op)


@dataclass(frozen=True)
class Expected:
    columns: tuple
    rows: frozenset
    #: The rows as the serving tier orders them (sorted by ``repr``), as
    #: JSON-shaped lists: lets a response be compared without rebuilding.
    ordered: list
    count: int
    #: Order-independent identity of the rows, stable across processes.
    digest: str


def _expected(relation) -> Expected:
    ordered = sorted(relation.rows, key=repr)
    digest = hashlib.sha256("\n".join(map(repr, ordered)).encode("utf-8"))
    return Expected(columns=tuple(relation.columns), rows=relation.rows,
                    ordered=[list(row) for row in ordered],
                    count=len(ordered), digest=digest.hexdigest()[:16])


def build_oracle(data: Dataset, ops: list[Op]) -> dict[tuple, Expected]:
    reads = [op for op in dict.fromkeys(ops) if op.kind not in WRITES]
    writes = {op.kind: op for op in ops if op.kind in WRITES}
    oracle: dict[tuple, Expected] = {}
    with Session(data.database, view_maintenance="off") as session, row_mode():

        def evaluate(ops) -> None:
            for op in ops:
                if op.oracle_key in oracle:
                    continue
                handle = (session.prepare(op.text).bind(c=op.args[0])
                          if op.kind == BIND else session.ucrpq(op.text))
                oracle[op.oracle_key] = _expected(
                    session.evaluate_centralized(handle.plan().term))

        evaluate(op for op in reads if op.state != ADDED)
        if ADD in writes:
            session.add_edges(writes[ADD].text, writes[ADD].args)
            evaluate(op for op in reads if op.state == ADDED)
            session.remove_edges(writes[REMOVE].text, writes[REMOVE].args)
    return oracle


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    #: Tuples shuffled + broadcast by the operation (in-process only; a
    #: cached response moved nothing).
    comm_rows: int = 0
    #: Wall-clock instant the first streamed batch was parsed.
    first_at: float | None = None


def verify(op: Op, raw, oracle: dict[tuple, Expected]) -> Verdict:
    """Judge one raw result; exceptions arrive as the raw result itself."""
    if isinstance(raw, Exception):
        return Verdict(False, f"{type(raw).__name__}: {raw}")
    if op.kind in WRITES:
        ok = bool(raw.get("committed")) and op.text in raw.get("touched", ())
        return Verdict(ok, "" if ok else f"commit not applied: {raw}")
    expected = oracle[op.oracle_key]
    verdict = Verdict(True)
    if op.kind in (QUERY, BIND):
        relation = raw.relation
        matches = (tuple(relation.columns) == expected.columns
                   and relation.rows == expected.rows)
        verdict.comm_rows = (raw.metrics.tuples_shuffled
                             + raw.metrics.tuples_broadcast)
        got = len(relation)
    else:
        if op.kind == HTTP:
            if raw.get("status") != "ok":
                return Verdict(False, f"status {raw.get('status')!r}: "
                                      f"{raw.get('detail', '')}")
            rows = raw["rows"]
            matches = tuple(raw["columns"]) == expected.columns
        else:
            rows, verdict.first_at = raw        # a stream
            matches = True
        matches = matches and (
            rows == expected.ordered
            or (len(rows) == expected.count
                and frozenset(map(tuple, rows)) == expected.rows))
        got = len(rows)
    if not matches:
        verdict.ok = False
        verdict.detail = (f"rows differ from the oracle: got {got}, "
                          f"expected {expected.count}")
    return verdict
