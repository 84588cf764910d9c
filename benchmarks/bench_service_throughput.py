"""Workload replay through the serving layer: throughput and latency.

A Zipf-skewed mix of the existing workloads (Yago UCRPQs, Uniprot UCRPQs
and concatenated closures, all over one merged database) is replayed from
``NUM_CLIENTS`` concurrent client threads against a :class:`QueryService`,
in three configurations:

* ``caches off`` — every request pays translation + rewriting + ranking +
  execution (the pre-serving-layer behaviour, but scheduled),
* ``caches cold`` — caches enabled, first replay (populating),
* ``caches hot`` — caches enabled, second replay of the same trace
  (the repeated-query hot path).

The report shows served throughput, latency percentiles (through the
shared :func:`repro.bench.latency_table` formatter) and the cache hit
rates.  Headline assertion: the hot path must be at least
``HOT_SPEEDUP_FLOOR``x faster (mean latency) than the caches-off replay —
the ≥5x acceptance bar of the serving-layer work.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import QueryService, Session
from repro.bench import latency_table
from repro.datasets import erdos_renyi_graph, uniprot_graph, yago_like_graph
from repro.service import OK
from repro.workloads.closures import concatenated_closure_query
from repro.workloads.uniprot_queries import uniprot_queries
from repro.workloads.yago_queries import yago_queries

FIGURE_TITLE = "Serving layer - workload replay throughput and latency"

NUM_CLIENTS = 4
REQUESTS = 96
#: Zipf exponent of the query popularity (rank -> weight 1/rank^s).
ZIPF_EXPONENT = 1.1
#: Acceptance bar: repeated-query cache hits vs the uncached replay.
HOT_SPEEDUP_FLOOR = 5.0

YAGO_SUBSET = ("Q1", "Q3", "Q8", "Q12", "Q16")
UNIPROT_SUBSET = ("Q30", "Q42", "Q49")

#: mode -> {"latencies": [...], "snapshot": MetricsSnapshot}, filled by the
#: replay matrix and consumed by the assertions/report below.
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def merged_database():
    """One database holding the Yago, Uniprot and closure label spaces."""
    yago = yago_like_graph(scale=60, seed=7)
    uniprot = uniprot_graph(num_edges=800, seed=11)
    closure_graph = erdos_renyi_graph(60, num_edges=240, seed=3,
                                      labels=("a1", "a2"), name="rnd_cc")
    database = {}
    for graph in (yago, uniprot, closure_graph):
        for name, relation in graph.relations().items():
            database[name] = (relation if name not in database
                              else database[name].union(relation))
    return database


@pytest.fixture(scope="module")
def workload(merged_database):
    """The distinct queries of the mix, most popular first."""
    uniprot = uniprot_graph(num_edges=800, seed=11)
    queries = []
    queries += yago_queries(subset=YAGO_SUBSET)
    queries += uniprot_queries(uniprot, subset=UNIPROT_SUBSET)
    queries += [concatenated_closure_query(2, label_prefix="a")]
    return queries


@pytest.fixture(scope="module")
def trace(workload):
    """Zipf-skewed replay trace: few hot queries, a long cold tail."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(workload))]
    rng = random.Random(20260728)
    return [query.text for query in
            rng.choices(workload, weights=weights, k=REQUESTS)]


def replay(service, trace):
    """Replay the trace from NUM_CLIENTS threads; return the latencies."""
    slices = [trace[index::NUM_CLIENTS] for index in range(NUM_CLIENTS)]
    latencies: list[list[float]] = [[] for _ in range(NUM_CLIENTS)]
    failures: list[str] = []

    def client(client_id: int) -> None:
        for text in slices[client_id]:
            served = service.submit(text, block=True).result()
            if served.status != OK:
                failures.append(f"{text}: {served.detail}")
            latencies[client_id].append(served.service_seconds)

    threads = [threading.Thread(target=client, args=(client_id,))
               for client_id in range(NUM_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[:3]
    return [seconds for per_client in latencies for seconds in per_client]


@pytest.mark.parametrize("mode", ["caches off", "caches cold", "caches hot"])
def test_replay_matrix(figure_report, merged_database, trace, mode):
    caching = mode != "caches off"
    if mode == "caches hot":
        if "caches cold" not in _RESULTS:
            pytest.skip("needs the 'caches cold' run of the matrix")
        # Reuse the populated service of the cold run, with fresh counters
        # so the hot snapshot reports only the repeated-query replay.
        service = _RESULTS["caches cold"]["service"]
        service.metrics = type(service.metrics)()
        latencies = replay(service, trace)
        _RESULTS[mode] = {"latencies": latencies,
                          "snapshot": service.metrics.snapshot(),
                          "service": service}
        service.close()
        return
    engine = Session(merged_database, num_workers=4)
    service = QueryService(engine, max_in_flight=NUM_CLIENTS,
                           queue_capacity=REQUESTS, own_engine=True,
                           enable_plan_cache=caching,
                           enable_result_cache=caching)
    latencies = replay(service, trace)
    _RESULTS[mode] = {"latencies": latencies,
                      "snapshot": service.metrics.snapshot(),
                      "service": service}
    if not caching:
        service.close()


def test_hot_path_speedup_and_report(figure_report):
    if len(_RESULTS) < 3:
        pytest.skip("replay matrix was deselected")
    rows = [(mode, _RESULTS[mode]["latencies"])
            for mode in ("caches off", "caches cold", "caches hot")]
    figure_report.add_section(
        latency_table(rows, FIGURE_TITLE, row_label="mode"))
    lines = [f"replay: {REQUESTS} requests, {NUM_CLIENTS} clients, "
             f"Zipf s={ZIPF_EXPONENT}"]
    for mode in ("caches off", "caches cold", "caches hot"):
        snapshot = _RESULTS[mode]["snapshot"]
        lines.append(
            f"  {mode:12s} throughput {snapshot.throughput_qps:8.1f} q/s  "
            f"plan hits {snapshot.plan_cache_hit_rate:5.1%}  "
            f"result hits {snapshot.result_cache_hit_rate:5.1%}")
    off_mean = _mean(_RESULTS["caches off"]["latencies"])
    hot_mean = _mean(_RESULTS["caches hot"]["latencies"])
    speedup = off_mean / hot_mean
    lines.append(f"  repeated-query hot path speedup: {speedup:.1f}x "
                 f"(floor {HOT_SPEEDUP_FLOOR}x)")
    figure_report.add_section("\n".join(lines))
    # The second replay of the same trace hits the caches on every request.
    hot_snapshot = _RESULTS["caches hot"]["snapshot"]
    assert hot_snapshot.result_cache_hit_rate > 0.5
    assert speedup >= HOT_SPEEDUP_FLOOR, (
        f"cache-hit hot path only {speedup:.1f}x faster than uncached "
        f"serving (floor {HOT_SPEEDUP_FLOOR}x)")


def test_cold_cache_already_helps(figure_report):
    """Even the populating replay wins: the Zipf head repeats quickly."""
    if len(_RESULTS) < 2:
        pytest.skip("replay matrix was deselected")
    cold = _RESULTS["caches cold"]["snapshot"]
    assert cold.result_cache_hit_rate > 0.0
    assert _mean(_RESULTS["caches cold"]["latencies"]) <= \
        _mean(_RESULTS["caches off"]["latencies"]) * 1.5


#: Prepared-query scenario: bindings of one parameterized template.
PREPARED_BINDINGS = 100
#: Acceptance bar: share of bindings served from the plan cache.
PREPARED_HIT_FLOOR = 0.9
PREPARED_TEMPLATE = "?y <- :start int+ ?y"


def test_prepared_query_plan_cache(figure_report, merged_database):
    """100 bindings of one template: exactly one explore+rank.

    The template is planned once with a parameter sentinel; every binding
    substitutes its constant into the selected plan, so the rewriter and
    the cost ranking run exactly once for the whole batch.
    """
    with Session(merged_database, num_workers=4) as session:
        explores = []
        original = session.rewriter.explore
        session.rewriter.explore = lambda *args, **kw: (
            explores.append(1) or original(*args, **kw))
        prepared = session.prepare(PREPARED_TEMPLATE)
        nodes_pool: set = set()
        for label in ("int", "ref", "occ"):
            relation = merged_database[label]
            nodes_pool |= relation.column_values("src")
            nodes_pool |= relation.column_values("trg")
        nodes = sorted(nodes_pool)
        assert len(nodes) >= PREPARED_BINDINGS, "need 100 distinct bindings"
        latencies = []
        total_rows = 0
        for node in nodes[:PREPARED_BINDINGS]:
            started = time.perf_counter()
            result = prepared.bind(start=node).collect()
            latencies.append(time.perf_counter() - started)
            total_rows += len(result.relation)
        stats = session.plan_cache.stats
        hit_rate = stats.hits / (stats.hits + stats.misses)
        first, rest = latencies[0], latencies[1:]
        lines = [
            "Prepared-query scenario - one template, "
            f"{PREPARED_BINDINGS} bindings ({PREPARED_TEMPLATE!r})",
            f"  explore+rank invocations : {len(explores)}",
            f"  plan cache hits/misses   : {stats.hits}/{stats.misses} "
            f"(hit rate {hit_rate:.1%}, floor {PREPARED_HIT_FLOOR:.0%})",
            f"  first binding latency    : {first * 1000:8.2f} ms "
            f"(pays the one explore+rank)",
            f"  later bindings (mean)    : "
            f"{_mean(rest) * 1000:8.2f} ms over {len(rest)} bindings",
            f"  rows across bindings     : {total_rows}",
        ]
        figure_report.add_section("\n".join(lines))
        # Acceptance: one explore+rank for the whole batch; every binding
        # after the first is a plan-cache hit (>= 99/100).
        assert len(explores) == 1, f"template explored {len(explores)} times"
        assert stats.hits >= PREPARED_BINDINGS - 1
        assert hit_rate >= PREPARED_HIT_FLOOR


def _mean(values):
    return sum(values) / len(values)
