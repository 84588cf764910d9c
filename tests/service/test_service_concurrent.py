"""Concurrent differential tests of the serving layer (acceptance bar).

Two acceptance properties:

* **Round-differential** — N client threads replay a mixed workload
  through one shared :class:`QueryService` with both caches enabled,
  with database mutations interleaved between replay rounds.  Every
  served result must be identical to what a *fresh, single-threaded*
  :class:`Session` (caches off) computes for the same query on the database
  state of that round.
* **Per-snapshot differential** — N reader threads run *while* a writer
  commits (no barriers at all), on two graphs of one session.  Every
  read pins some snapshot; replaying its query single-threaded against
  exactly that snapshot must reproduce the answer bit for bit.  The
  scheduler, the version-keyed caches and the lock-free plan phase are
  not allowed to change any answer, only how fast it arrives.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import LabeledGraph, QueryService, Session
from repro.service import OK

QUERIES = (
    "?x,?y <- ?x knows+ ?y",
    "?x <- ?x livesIn/isLocatedIn+ europe",
    "?x,?y <- ?x knows+/livesIn ?y",
    "?x,?y <- ?x (knows|worksAt)+ ?y",
    "?x <- alice knows+/worksAt ?x",
    "?x,?y <- ?x isLocatedIn+ ?y",
)

#: (label, (src, trg)) mutations applied between replay rounds.
MUTATIONS = (
    ("add", "knows", (("dave", "erin"), ("erin", "alice"))),
    ("add", "worksAt", (("carol", "cnrs"),)),
    ("remove", "knows", (("erin", "alice"),)),
)

NUM_CLIENTS = 4
REPLAYS_PER_CLIENT = 12


def replay_round(service, rng_seed):
    """Replay a shuffled query mix from NUM_CLIENTS threads; return results."""
    rng = random.Random(rng_seed)
    outcomes: dict[int, list] = {}
    errors: list[BaseException] = []

    def client(client_id: int) -> None:
        local = [rng_queries[client_id][i]
                 for i in range(REPLAYS_PER_CLIENT)]
        try:
            outcomes[client_id] = [
                (text, service.submit(text, block=True).result())
                for text in local]
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    rng_queries = {
        client_id: [rng.choice(QUERIES) for _ in range(REPLAYS_PER_CLIENT)]
        for client_id in range(NUM_CLIENTS)
    }
    threads = [threading.Thread(target=client, args=(client_id,))
               for client_id in range(NUM_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return [pair for client_id in sorted(outcomes)
            for pair in outcomes[client_id]]


def reference_answers(database):
    """Fresh single-threaded engine per query on a database snapshot."""
    answers = {}
    for text in QUERIES:
        with Session(dict(database), num_workers=2, enable_plan_cache=False,
                     enable_result_cache=False) as fresh:
            answers[text] = fresh.ucrpq(text).collect().relation
    return answers


@pytest.mark.parametrize("num_workers", (1, 2))
def test_concurrent_replay_with_mutations_is_differential(
        small_labeled_graph, num_workers, registry):
    with Session(small_labeled_graph, num_workers=num_workers) as engine:
        with QueryService(engine, max_in_flight=NUM_CLIENTS,
                          queue_capacity=NUM_CLIENTS * REPLAYS_PER_CLIENT) \
                as service:
            for round_index, mutation in enumerate((None,) + MUTATIONS):
                if mutation is not None:
                    kind, label, pairs = mutation
                    if kind == "add":
                        service.add_edges(label, pairs)
                    else:
                        service.remove_edges(label, pairs)
                served = replay_round(service, rng_seed=100 + round_index)
                expected = reference_answers(engine.database)
                for text, outcome in served:
                    assert outcome.status == OK, (text, outcome.detail)
                    assert outcome.result.relation == expected[text], (
                        f"round {round_index}: {text} diverged from the "
                        f"fresh single-threaded evaluation")
            rounds = 1 + len(MUTATIONS)
            assert registry.counter(
                "repro_service_requests_total", graph="default",
                status=OK).value == rounds * NUM_CLIENTS * REPLAYS_PER_CLIENT
            # The replay repeats queries heavily: caches must actually engage.
            assert hit_rate(registry, "repro_result_cache_total") > 0.5
            assert hit_rate(registry, "repro_plan_cache_total") > 0.5


def hit_rate(registry, name: str) -> float:
    hits = registry.counter(name, outcome="hit").value
    return hits / (hits + registry.counter(name, outcome="miss").value)


def served_by(registry, graph: str) -> float:
    return registry.counter("repro_service_requests_total", graph=graph,
                            status=OK).value


def second_graph() -> LabeledGraph:
    """A small two-label graph distinct from the fixture graph."""
    graph = LabeledGraph(name="second")
    for index in range(6):
        graph.add_edge(f"s{index}", "knows", f"s{index + 1}")
    graph.add_edge("s0", "livesIn", "town")
    graph.add_edge("town", "isLocatedIn", "europe")
    graph.add_edge("s3", "worksAt", "lab")
    return graph


def test_concurrent_mutations_match_per_snapshot_replays(small_labeled_graph):
    """Readers and a writer with no synchronization, on two graphs of one
    session: every collected answer must equal a fresh single-threaded
    replay against the exact snapshot the handle pinned."""
    reader_queries = QUERIES[:4]
    records: dict[int, list] = {}
    errors: list[BaseException] = []
    with Session(small_labeled_graph, num_workers=2) as session:
        session.attach("second", second_graph())
        scopes = {"default": session, "second": session.graph("second")}

        def reader(reader_id: int) -> None:
            rng = random.Random(1000 + reader_id)
            rows = records[reader_id] = []
            try:
                for _ in range(8):
                    name = rng.choice(tuple(scopes))
                    text = rng.choice(reader_queries)
                    handle = scopes[name].ucrpq(text)
                    relation = handle.collect().relation
                    rows.append((name, text, handle.pinned_snapshot, relation))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        def writer() -> None:
            try:
                for index in range(6):
                    session.add_edges(
                        "knows", [(f"w{index}", f"w{index + 1}")])
                    with scopes["second"].transaction() as txn:
                        txn.add_edges("knows", [(f"v{index}", f"v{index + 1}")])
                        txn.add_edges("worksAt", [(f"v{index}", "lab")])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(reader_id,))
                   for reader_id in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        # Writers really interleaved with the reads.
        assert session.database_version == 6
        assert scopes["second"].database_version == 6

        seen_versions = set()
        replayed = {}
        for rows in records.values():
            for name, text, snapshot, relation in rows:
                assert snapshot is not None
                seen_versions.add((name, snapshot.version))
                key = (id(snapshot), text)
                if key not in replayed:
                    with Session(dict(snapshot), num_workers=2) as fresh:
                        replayed[key] = fresh.ucrpq(text).collect().relation
                assert replayed[key] == relation, (
                    f"{name}@v{snapshot.version}: {text} diverged from the "
                    f"single-threaded replay of its pinned snapshot")
        assert len(records) == 3 and all(len(r) == 8 for r in records.values())


def test_service_serves_multiple_graphs(small_labeled_graph, registry):
    """One service instance scopes requests and mutations per graph."""
    with Session(small_labeled_graph, num_workers=2) as session:
        session.attach("second", second_graph())
        with QueryService(session, max_in_flight=2) as service:
            text = "?x,?y <- ?x knows+ ?y"
            default = service.submit(text, block=True).result(timeout=30)
            second = service.submit(text, block=True,
                                    graph="second").result(timeout=30)
            assert default.status == OK and second.status == OK
            assert second.graph == "second"
            assert default.rows != second.rows
            service.add_edges("knows", [("zz1", "zz2")], graph="second")
            after = service.submit(text, block=True,
                                   graph="second").result(timeout=30)
            assert after.rows == second.rows + 1
            # The default graph's head and caches were untouched.
            replay = service.submit(text, block=True).result(timeout=30)
            assert replay.rows == default.rows
            assert replay.result_cache_hit is True
            assert served_by(registry, "default") == 2
            assert served_by(registry, "second") == 2
            # A pre-built handle scoped to one graph cannot be served
            # under another graph's name (wrong-dataset protection).
            foreign = session.ucrpq(text)  # default-graph handle
            mismatch = service.submit(foreign, block=True,
                                      graph="second").result(timeout=30)
            assert mismatch.status == "failed"
            assert "scoped to graph" in mismatch.detail
            # The right graph name (or none) still serves it fine, and a
            # scoped handle submitted without graph= is attributed to the
            # graph it actually served.
            ok = service.submit(session.graph("second").ucrpq(text),
                                block=True, graph="second").result(timeout=30)
            assert ok.status == OK and ok.rows == after.rows
            bare = service.submit(session.graph("second").ucrpq(text),
                                  block=True).result(timeout=30)
            assert bare.status == OK and bare.graph == "second"
            assert served_by(registry, "second") == 4
