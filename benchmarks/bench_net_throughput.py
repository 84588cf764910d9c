"""HTTP serving tier vs in-process serving: throughput and latency.

The same Zipf-skewed workload replay as ``bench_service_throughput`` —
Yago + Uniprot + closure queries over one merged database — driven two
ways against one warmed (hot-cache) :class:`QueryService`:

* ``in-process hot`` — ``NUM_CLIENTS`` threads calling
  :meth:`QueryService.submit` directly (no network, no serialization),
* ``http hot`` — ``NUM_CLIENTS`` separate **OS processes**, each with a
  blocking :class:`~repro.net.client.ServiceClient`, replaying the same
  trace through ``POST /v1/query`` against one
  :class:`~repro.net.server.HttpServer`.

The report records client-observed p50/p95/p99 latency for both paths
and dumps every number to ``benchmarks/results/BENCH_net.json``.
Headline assertion: the HTTP path's hot-cache throughput must stay
within ``SANE_FACTOR``x of the in-process path — the tier may pay for
sorting, JSON and the wire, but not by an order-of-magnitude-plus.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import threading
import time
from pathlib import Path

import pytest

from repro import QueryService, Session
from repro.bench import latency_table
from repro.datasets import erdos_renyi_graph, uniprot_graph, yago_like_graph
from repro.net import HttpServer, ServerThread
from repro.net.client import ServiceClient
from repro.service import OK
from repro.workloads.closures import concatenated_closure_query
from repro.workloads.uniprot_queries import uniprot_queries
from repro.workloads.yago_queries import yago_queries

FIGURE_TITLE = "HTTP serving tier - hot-cache replay vs in-process serving"
RESULTS_DIR = Path(__file__).parent / "results"

NUM_CLIENTS = 4
REQUESTS = 96
ZIPF_EXPONENT = 1.1
PERCENTILES = (0.5, 0.95, 0.99)
#: Acceptance bar: hot-cache HTTP throughput vs the in-process path.
SANE_FACTOR = 25.0

YAGO_SUBSET = ("Q1", "Q3", "Q8", "Q12", "Q16")
UNIPROT_SUBSET = ("Q30", "Q42", "Q49")

#: mode -> {"latencies": [...], "wall_seconds": float}, filled by the
#: replay tests and consumed by the assertion/report test below.
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def merged_database():
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
def trace(merged_database):
    """Zipf-skewed replay trace: few hot queries, a long cold tail."""
    uniprot = uniprot_graph(num_edges=800, seed=11)
    queries = []
    queries += yago_queries(subset=YAGO_SUBSET)
    queries += uniprot_queries(uniprot, subset=UNIPROT_SUBSET)
    queries += [concatenated_closure_query(2, label_prefix="a")]
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(queries))]
    rng = random.Random(20260808)
    return [query.text for query in
            rng.choices(queries, weights=weights, k=REQUESTS)]


@pytest.fixture(scope="module")
def hot_server(merged_database, trace):
    """A served, cache-warmed service plus its HTTP front end."""
    session = Session(merged_database, num_workers=4)
    service = QueryService(session, max_in_flight=NUM_CLIENTS,
                           queue_capacity=REQUESTS, own_engine=True)
    for text in sorted(set(trace)):  # warm the plan + result caches
        served = service.submit(text, block=True).result()
        assert served.status == OK, served.detail
    running = ServerThread(HttpServer(service, own_service=True)).start()
    yield service, running.port
    running.stop()


def run_http_client(args: tuple) -> tuple[float, float, list[float]]:
    """One OS process replaying its trace slice through ServiceClient."""
    port, texts = args
    latencies: list[float] = []
    with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
        client.health()  # connection + import warm-up, outside the clock
        started = time.perf_counter()
        for text in texts:
            request_started = time.perf_counter()
            response = client.query(text, timeout=0)
            latencies.append(time.perf_counter() - request_started)
            assert response["status"] == "ok"
        finished = time.perf_counter()
    return started, finished, latencies


def test_in_process_hot_replay(hot_server, trace):
    service, _ = hot_server
    slices = [trace[index::NUM_CLIENTS] for index in range(NUM_CLIENTS)]
    latencies: list[list[float]] = [[] for _ in range(NUM_CLIENTS)]

    def client(client_id: int) -> None:
        for text in slices[client_id]:
            request_started = time.perf_counter()
            served = service.submit(text, block=True).result()
            latencies[client_id].append(
                time.perf_counter() - request_started)
            assert served.status == OK, served.detail

    threads = [threading.Thread(target=client, args=(client_id,))
               for client_id in range(NUM_CLIENTS)]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_started
    _RESULTS["in-process hot"] = {
        "latencies": [s for per_client in latencies for s in per_client],
        "wall_seconds": wall,
    }


def test_http_hot_replay(hot_server, trace):
    _, port = hot_server
    slices = [trace[index::NUM_CLIENTS] for index in range(NUM_CLIENTS)]
    context = multiprocessing.get_context("spawn")
    with context.Pool(NUM_CLIENTS) as pool:
        outcomes = pool.map(run_http_client,
                            [(port, piece) for piece in slices])
    # Process start-up and imports are excluded: the replay wall clock
    # spans first-request-sent to last-response-received across workers.
    wall = (max(finished for _, finished, _ in outcomes)
            - min(started for started, _, _ in outcomes))
    _RESULTS["http hot"] = {
        "latencies": [s for _, _, latencies in outcomes for s in latencies],
        "wall_seconds": wall,
    }


def test_throughput_within_sane_factor_and_report(figure_report):
    if len(_RESULTS) < 2:
        pytest.skip("replay runs were deselected")
    rows = [(f"{mode} ({NUM_CLIENTS} "
             f"{'procs' if mode.startswith('http') else 'threads'})",
             _RESULTS[mode]["latencies"])
            for mode in ("in-process hot", "http hot")]
    figure_report.add_section(
        latency_table(rows, FIGURE_TITLE, row_label="path",
                      percentiles=PERCENTILES))
    throughput = {mode: len(result["latencies"]) / result["wall_seconds"]
                  for mode, result in _RESULTS.items()}
    ratio = throughput["in-process hot"] / throughput["http hot"]
    figure_report.add_section(
        f"replay: {REQUESTS} requests, {NUM_CLIENTS} clients, "
        f"Zipf s={ZIPF_EXPONENT}\n"
        f"  in-process hot throughput : {throughput['in-process hot']:8.1f} q/s\n"
        f"  http hot throughput       : {throughput['http hot']:8.1f} q/s\n"
        f"  in-process / http ratio   : {ratio:.1f}x "
        f"(sane factor {SANE_FACTOR}x)")

    def stats(samples: list[float]) -> dict:
        ordered = sorted(samples)

        def pct(fraction: float) -> float:
            index = min(len(ordered) - 1,
                        max(0, round(fraction * (len(ordered) - 1))))
            return ordered[index]

        return {"count": len(ordered),
                "mean_s": sum(ordered) / len(ordered),
                "p50_s": pct(0.5), "p95_s": pct(0.95), "p99_s": pct(0.99),
                "max_s": ordered[-1]}

    payload = {
        "title": FIGURE_TITLE,
        "requests": REQUESTS,
        "clients": NUM_CLIENTS,
        "zipf_exponent": ZIPF_EXPONENT,
        "sane_factor": SANE_FACTOR,
        "runs": [
            {"mode": mode, "wall_seconds": result["wall_seconds"],
             "throughput_qps": throughput[mode],
             **stats(result["latencies"])}
            for mode, result in sorted(_RESULTS.items())
        ],
        "throughput_ratio": ratio,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_net.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert ratio <= SANE_FACTOR, (
        f"HTTP hot-cache throughput {ratio:.1f}x below the in-process "
        f"path (sane factor {SANE_FACTOR}x)")
