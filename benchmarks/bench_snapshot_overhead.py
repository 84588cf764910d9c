"""Cost of copy-on-write snapshot commits and the concurrency they buy.

Three acceptance properties of the snapshot-isolated Session API:

1. **Commit overhead** — a single-label mutation through
   ``Session.add_edges`` (which builds a full successor
   :class:`~repro.data.snapshot.DatabaseSnapshot`: COW relation map,
   per-relation versions and schemas; statistics wait for the plan
   phase) must cost at most 10% more than the seed's in-place edit
   (mutate the dict, summarize the touched relations, recompute the
   schema map, bump versions).
2. **O(touched relations)** — commit cost must track the relations a
   mutation touches, not the size of the database: growing the number of
   *untouched* relations 8x must not meaningfully change the commit time
   (only a few dictionary copies scale with the name count).
3. **Reads under a writer** — because result-cache hits are served from
   version-keyed snapshots without the execution lock, reader throughput
   while a writer commits must beat the seed discipline, where both the
   cached lookup and the mutation serialized on the execution lock.

Results are written to ``benchmarks/results/bench_snapshot_overhead.txt``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Session
from repro.algebra.schema import schemas_of_database
from repro.data import LabeledGraph, Relation, RelationStats
from repro.datasets import erdos_renyi_graph

FIGURE_TITLE = "Snapshot commit overhead and lock-free read throughput"

#: Edges in the mutated label: sized so the shared per-edit work (the
#: delta union over the touched relations) dominates and the whole
#: module stays a CI-friendly smoke run.
GRAPH_EDGES = 8_000
#: Commits measured per mode (medians over these samples).
COMMITS = 60
#: Allowed overhead of a snapshot commit over the seed in-place edit.
OVERHEAD_CEILING = 1.10
#: Required throughput advantage of lock-free reads under a writer.
READ_SPEEDUP_FLOOR = 1.3


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


@pytest.fixture(scope="module")
def mutation_graph() -> LabeledGraph:
    return erdos_renyi_graph(2_000, num_edges=GRAPH_EDGES, seed=23,
                             labels=("knows", "cites"), name="commit-bench")


def _seed_inplace_edit(database: dict, versions: dict, version: int,
                       label: str, pair: tuple) -> int:
    """Replay the seed mutation path: edit the dict under one lock hold.

    Mirrors the pre-snapshot ``Session._mutate_locked``: plan the three
    deltas (label, inverse, facts), union them in, summarize every
    touched relation eagerly (as the seed's statistics catalog did),
    recompute the schema map and bump the version counters.
    (The eager cache purge is *omitted*, which only makes the baseline
    faster and this benchmark's ceiling harder to meet.)
    """
    src, trg = pair
    deltas = {
        label: Relation.from_pairs([pair], columns=("src", "trg")),
        f"-{label}": Relation.from_pairs([(trg, src)], columns=("src", "trg")),
        "facts": Relation(("pred", "src", "trg"), [(label, src, trg)]),
    }
    for name, delta in deltas.items():
        database[name] = database[name].union(delta)
        RelationStats.of(database[name])
    schemas_of_database(database)
    version += 1
    for name in deltas:
        versions[name] = version
    return version


def test_commit_overhead_within_ceiling(figure_report, mutation_graph):
    """COW snapshot commit vs seed in-place edit, single-label mutation.

    The two variants are *interleaved* sample by sample, so slow system
    drift (GC pressure, thermal throttling, a noisy CI neighbour) hits
    both medians equally instead of biasing whichever ran second.
    """
    seed_db = dict(mutation_graph.relations())
    seed_versions = dict.fromkeys(seed_db, 0)
    seed_samples: list[float] = []
    snapshot_samples: list[float] = []
    version = 0
    with Session(mutation_graph, num_workers=2) as session:
        for index in range(COMMITS):
            pair = (f"seed{index}", f"seed{index + 1}")
            started = time.perf_counter()
            version = _seed_inplace_edit(seed_db, seed_versions, version,
                                         "knows", pair)
            seed_samples.append(time.perf_counter() - started)

            pair = (f"snap{index}", f"snap{index + 1}")
            started = time.perf_counter()
            touched = session.add_edges("knows", [pair])
            snapshot_samples.append(time.perf_counter() - started)
            assert touched  # never the no-op fast path
        assert session.database_version == COMMITS

    seed_median = _median(seed_samples)
    snapshot_median = _median(snapshot_samples)
    ratio = snapshot_median / seed_median
    figure_report.add_section(
        f"single-label commit: seed in-place {seed_median * 1e3:.3f} ms, "
        f"snapshot COW {snapshot_median * 1e3:.3f} ms "
        f"-> overhead {ratio:.3f}x (ceiling {OVERHEAD_CEILING}x)")
    assert ratio <= OVERHEAD_CEILING, (
        f"snapshot commit costs {ratio:.2f}x the seed in-place edit "
        f"(ceiling {OVERHEAD_CEILING}x)")


@pytest.mark.parametrize("relations", (8, 64))
def test_commit_cost_is_o_touched(figure_report, relations):
    """8x more *untouched* relations must not inflate the commit."""
    rows = [(f"n{i}", f"n{i + 1}") for i in range(2_000)]
    database = {
        f"l{index}": Relation.from_pairs(rows, columns=("src", "trg"))
        for index in range(relations)
    }
    with Session(database, num_workers=2) as session:
        samples: list[float] = []
        for index in range(COMMITS):
            pair = (f"c{index}", f"c{index + 1}")
            started = time.perf_counter()
            session.add_edges("l0", [pair])
            samples.append(time.perf_counter() - started)
    _SCALING[relations] = _median(samples)
    figure_report.add_section(
        f"commit with {relations} relations (1 touched): "
        f"{_SCALING[relations] * 1e3:.3f} ms")
    if len(_SCALING) == 2:
        small, large = _SCALING[8], _SCALING[64]
        ratio = large / small
        figure_report.add_section(
            f"scaling 8 -> 64 relations: {ratio:.2f}x "
            f"(O(touched): must stay well below the 8x name growth)")
        assert ratio < 2.5, (
            f"commit cost grew {ratio:.2f}x when only untouched relations "
            f"were added; expected O(touched relations)")


_SCALING: dict[int, float] = {}


def _concurrent_database() -> dict[str, Relation]:
    """A cheap cached relation, a mutated one, and a recursion-heavy one.

    Readers hit ``knows`` (cached lookups); the writer commits into the
    disjoint ``cites``; the cluster meanwhile executes closures over
    ``follows`` — the cache-missing work that holds the execution lock.
    """
    knows = Relation.from_pairs([(f"k{i}", f"k{i + 1}") for i in range(50)],
                                columns=("src", "trg"))
    cites = Relation.from_pairs([(f"c{i}", f"c{i + 1}") for i in range(5_000)],
                                columns=("src", "trg"))
    chain = [(f"f{i}", f"f{i + 1}") for i in range(600)]
    chain += [(f"f{i}", f"f{i + 2}") for i in range(0, 600, 7)]
    follows = Relation.from_pairs(chain, columns=("src", "trg"))
    return {"knows": knows, "cites": cites, "follows": follows}


def _read_throughput(session: Session, query: str, locked: bool,
                     window_seconds: float) -> tuple[float, int, int]:
    """Reads/second of cached hits while the service is actually busy.

    Background load in both modes: one thread repeatedly *executes* a
    recursion-heavy query with the result cache off (a cache miss on the
    cluster — this is what the execution lock exists for) and a writer
    commits edge batches on a steady cadence.  ``locked=True`` replays
    the seed discipline, where the result-cache lookup and the mutation
    also had to acquire the execution lock: every cached read and every
    commit waits out the in-flight execution.  With ``locked=False`` the
    snapshot path runs as-is — hits are served from version-keyed
    snapshots and commits swap heads, neither touching the lock — so
    only the physical executions themselves serialize.
    """
    done = threading.Event()
    counts = [0, 0]
    commits = [0]
    heavy = [0]

    def reader(slot: int) -> None:
        while not done.is_set():
            if locked:
                with session.execution_lock:
                    session.ucrpq(query).collect()
            else:
                session.ucrpq(query).collect()
            counts[slot] += 1

    def writer() -> None:
        index = 0
        while not done.is_set():
            pairs = [(f"w{index}_{j}", f"w{index}_{j + 1}")
                     for j in range(40)]
            if locked:
                with session.execution_lock:
                    session.add_edges("cites", pairs)
            else:
                session.add_edges("cites", pairs)
            commits[0] += 1
            index += 1
            done.wait(0.005)  # cadence pause, outside any lock

    def executor_load() -> None:
        while not done.is_set():
            # A genuine cluster execution: holds the execution lock in
            # both modes (physical executions always serialize).
            session.ucrpq("?x,?y <- ?x follows+ ?y").run_once(
                use_result_cache=False)
            heavy[0] += 1

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(2)]
    threads.append(threading.Thread(target=writer))
    threads.append(threading.Thread(target=executor_load))
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(window_seconds)
    done.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return sum(counts) / elapsed, commits[0], heavy[0]


def test_reads_under_writer_beat_lock_serialized_seed(figure_report):
    query = "?x,?y <- ?x knows ?y"
    rates = {}
    writes = {}
    for locked in (True, False):
        with Session(_concurrent_database(), num_workers=2) as session:
            session.ucrpq(query).collect()  # warm plan + result caches
            rate, commits, executions = _read_throughput(
                session, query, locked, window_seconds=1.2)
            rates[locked] = rate
            writes[locked] = commits
            assert executions > 0  # the cluster was really busy
            assert commits > 0     # the writer really interleaved
    ratio = rates[False] / max(1.0, rates[True])
    figure_report.add_section(
        f"cached reads/s with a concurrent writer on a busy cluster: "
        f"lock-serialized (seed) {rates[True]:.0f}/s "
        f"({writes[True]} commits), "
        f"snapshot (lock-free hits) {rates[False]:.0f}/s "
        f"({writes[False]} commits) "
        f"-> {ratio:.2f}x (floor {READ_SPEEDUP_FLOOR}x)")
    assert ratio >= READ_SPEEDUP_FLOOR, (
        f"lock-free reads only {ratio:.2f}x the lock-serialized seed path "
        f"(floor {READ_SPEEDUP_FLOOR}x)")
