"""Cached reads under a writer: what lock-free snapshots buy.

Result-cache hits are served from version-keyed snapshots and commits
swap the head, neither touching the execution lock.  So reader
throughput while a writer commits and the cluster executes must beat the
seed discipline, where the cached lookup and the commit both serialized
on the execution lock.

The two arms carry the same write load: each runs until its writer has
made ``COMMITS`` commits, and reads are counted over that window.  (Run
for a fixed time, the lock-serialized writer commits a handful of times
while the lock-free one commits ninety, and the ratio compares a
starved writer with a free one.)

What else the snapshot design claims is held elsewhere: a hit and a
commit need no execution lock, and a hit needs no commit lock
(``tests/session/test_snapshots.py::TestLockFreedom``); a commit shares
every relation it does not touch
(``test_structural_sharing_of_untouched_relations``); the cost of a
commit is the end-to-end benchmark's ``http-rw`` ``write_p50_ms``.

Results are written to ``benchmarks/results/bench_snapshot_overhead.txt``.
"""

from __future__ import annotations

import threading
import time

from repro import Session
from repro.data import Relation

FIGURE_TITLE = "Lock-free read throughput under a writer"

#: Commits each arm's writer makes; the read window ends with the last.
COMMITS = 8
#: The writer's pause after each commit, outside any lock, in both arms.
PAUSE_SECONDS = 0.005
#: Required throughput advantage of lock-free reads under a writer.
READ_SPEEDUP_FLOOR = 1.3


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


def _read_throughput(session: Session, query: str,
                     locked: bool) -> tuple[float, float, int]:
    """Reads/second of cached hits while the writer makes ``COMMITS``.

    Background load in both arms: one thread repeatedly *executes* a
    recursion-heavy query with the result cache off (a cache miss on the
    cluster — this is what the execution lock exists for), and the
    window opens once it has started.  ``locked=True`` replays the seed
    discipline, where the result-cache lookup and the commit also had to
    acquire the execution lock: every cached read and every commit waits
    out the in-flight execution.  With ``locked=False`` the snapshot path
    runs as-is, so only the physical executions serialize.  Returns the
    read rate, the window in seconds and the executions completed.
    """
    done = threading.Event()
    executing = threading.Event()
    counts = [0, 0]
    heavy = [0]

    def reader(slot: int) -> None:
        while not done.is_set():
            if locked:
                with session.execution_lock:
                    session.ucrpq(query).collect()
            else:
                session.ucrpq(query).collect()
            counts[slot] += 1

    def executor_load() -> None:
        while not done.is_set():
            executing.set()
            # A genuine cluster execution: holds the execution lock in
            # both arms (physical executions always serialize).
            session.ucrpq("?x,?y <- ?x follows+ ?y").run_once(
                use_result_cache=False)
            heavy[0] += 1

    executor = threading.Thread(target=executor_load)
    executor.start()
    executing.wait()
    readers = [threading.Thread(target=reader, args=(slot,))
               for slot in range(2)]
    started = time.perf_counter()
    for thread in readers:
        thread.start()
    for index in range(COMMITS):
        pairs = [(f"w{index}_{j}", f"w{index}_{j + 1}") for j in range(40)]
        if locked:
            with session.execution_lock:
                session.add_edges("cites", pairs)
        else:
            session.add_edges("cites", pairs)
        time.sleep(PAUSE_SECONDS)
    elapsed = time.perf_counter() - started
    reads = sum(counts)
    done.set()
    for thread in [*readers, executor]:
        thread.join()
    return reads / elapsed, elapsed, heavy[0]


def test_reads_under_writer_beat_lock_serialized_seed(figure_report):
    query = "?x,?y <- ?x knows ?y"
    rates = {}
    windows = {}
    for locked in (True, False):
        with Session(_concurrent_database(), num_workers=2) as session:
            session.ucrpq(query).collect()  # warm plan + result caches
            rate, window, executions = _read_throughput(session, query,
                                                        locked)
            assert session.database_version == COMMITS
            assert executions > 0  # the cluster was really busy
            rates[locked] = rate
            windows[locked] = window
    ratio = rates[False] / max(1.0, rates[True])
    figure_report.add_section(
        f"cached reads/s with a writer making {COMMITS} commits on a busy "
        f"cluster: lock-serialized (seed) {rates[True]:.0f}/s over "
        f"{windows[True]:.3f} s, snapshot (lock-free hits) "
        f"{rates[False]:.0f}/s over {windows[False]:.3f} s "
        f"-> {ratio:.2f}x (floor {READ_SPEEDUP_FLOOR}x)")
    assert ratio >= READ_SPEEDUP_FLOOR, (
        f"lock-free reads only {ratio:.2f}x the lock-serialized seed path "
        f"(floor {READ_SPEEDUP_FLOOR}x)")
