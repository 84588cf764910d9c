"""Plan choice, pinned: what explore and rank decide for 59 queries.

Every plan is equivalent, so a change to the rewriter or the cost model
that picks another plan keeps every answer right and no result test
notices.  This table does: for the 25 Yago and 25 Uniprot workload
queries and the Fig. 12 concatenated closures CC2–CC10, each row holds
how many plans ``MuRewriter.explore`` returned, a digest of that list
(printed plans, in order), the ``cache_key`` of the plan ``rank_plans``
puts first, and its estimated cost.

Regenerate the table (only for a change meant to move plan choice) with::

    PYTHONPATH=src python tests/cost/test_plan_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import Session
from repro.algebra.printer import term_to_string
from repro.cost import rank_plans
from repro.datasets import erdos_renyi_graph, uniprot_graph, yago_like_graph
from repro.rewriter.normalize import cache_key
from repro.workloads import (concatenated_closure_queries, uniprot_queries,
                             yago_queries)

TABLE = Path(__file__).with_name("plan_pins.json")
#: Read at collection; absent only while the table is being regenerated.
PINNED = json.loads(TABLE.read_text()) if TABLE.exists() else {}


def workloads():
    """``(prefix, graph, queries)`` for each pinned workload."""
    yago = yago_like_graph(scale=120, seed=3)
    uniprot = uniprot_graph(num_edges=2000, seed=3)
    closures = erdos_renyi_graph(
        60, num_edges=150, seed=4,
        labels=tuple(f"a{index}" for index in range(1, 11)))
    return (("Y", yago, yago_queries()),
            ("U", uniprot, uniprot_queries(uniprot)),
            ("CC", closures, concatenated_closure_queries()))


def pin_rows() -> dict[str, dict]:
    """One row per query: what explore and rank decided for it."""
    rows = {}
    for prefix, graph, queries in workloads():
        with Session(graph) as session:
            snapshot = session.snapshot()
            for query in queries:
                term = session.translate(session.parse(query.text),
                                         snapshot=snapshot)
                plans = session.rewriter.explore(term, snapshot.schemas)
                best = rank_plans(plans, catalog=snapshot.catalog)[0]
                printed = "\n".join(map(term_to_string, plans))
                name = query.qid if prefix == "CC" else prefix + query.qid
                rows[name] = {
                    "plans_explored": len(plans),
                    "plans_digest": hashlib.sha256(
                        printed.encode()).hexdigest()[:16],
                    "selected_key": cache_key(best.term),
                    "cost": best.cost,
                }
    return rows


@pytest.fixture(scope="module")
def rows():
    return pin_rows()


def test_the_table_covers_the_fifty_workload_queries_and_cc2_to_cc10(rows):
    assert len(PINNED) == 59 and sorted(rows) == sorted(PINNED)
    assert [name for name in PINNED if name.startswith("CC")] == [
        f"CC{depth}" for depth in range(2, 11)]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_explore_and_rank_decide_as_pinned(rows, name):
    row, pinned = rows[name], PINNED[name]
    assert row["plans_explored"] == pinned["plans_explored"]
    assert row["plans_digest"] == pinned["plans_digest"]
    assert row["selected_key"] == pinned["selected_key"]
    # The estimator sums floats over sets of columns, whose order
    # follows PYTHONHASHSEED: equal to the last bits, not bit for bit.
    assert row["cost"] == pytest.approx(pinned["cost"], rel=1e-12)


if __name__ == "__main__":
    TABLE.write_text(json.dumps(pin_rows(), indent=1) + "\n")
