"""Fig. 14 — scalability: Dist-mu-RA vs BigDatalog on growing Uniprot graphs.

The paper evaluates uniprot_1M/5M/10M; the reproduction uses three graphs of
growing size.  Shape to reproduce:
Dist-mu-RA answers every (query, size) combination and its time grows
moderately with the graph size, while BigDatalog accumulates failures as the
size grows.
"""

from __future__ import annotations

import pytest

from repro.bench import run_bigdatalog, run_distmura
from repro.workloads import uniprot_queries

FIGURE_TITLE = "Fig. 14 - scalability on Uniprot graphs of growing size"

QUERY_SUBSET = ("Q28", "Q33", "Q41", "Q45", "Q47")
SIZES = ("uniprot_1", "uniprot_3", "uniprot_6")
BIGDATALOG_FACT_BUDGET = 600_000


@pytest.mark.parametrize("size_name", SIZES)
@pytest.mark.parametrize("qid", QUERY_SUBSET)
@pytest.mark.parametrize("system", ("Dist-mu-RA", "BigDatalog"))
def test_scalability(benchmark, figure_report, uniprot_sizes, size_name, qid,
                     system):
    graph = uniprot_sizes[size_name]
    query = {q.qid: q for q in uniprot_queries(graph, subset=(qid,))}[qid]
    query_id = f"{qid}@{size_name}"

    def run():
        if system == "Dist-mu-RA":
            measured = run_distmura(graph, query)
        else:
            measured = run_bigdatalog(graph, query,
                                      max_facts=BIGDATALOG_FACT_BUDGET)
        measured.query_id = query_id
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    figure_report.add(measured)
    if system == "Dist-mu-RA":
        assert measured.succeeded
