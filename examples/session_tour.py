"""Tour of the Session API: lazy stages, snapshots, transactions, graphs.

Run with::

    python examples/session_tour.py

The session owns the simulated cluster and one or more named graphs,
each held as an immutable versioned DatabaseSnapshot; front-ends hand
out lazy handles whose pipeline stages (parse -> translate -> normalize
-> rank -> execute) run only when first inspected or when a terminal
action fires, and every handle pins the snapshot of its first stage so
results are repeatable reads under concurrent commits.
"""

from __future__ import annotations

import random

from repro import LabeledGraph, Session, get_registry


def build_graph() -> LabeledGraph:
    graph = LabeledGraph(name="tour")
    rng = random.Random(7)
    people = [f"p{i}" for i in range(40)]
    cities = ["lyon", "grenoble", "paris", "berlin", "vienna"]
    for person in people:
        graph.add_edge(person, "knows", rng.choice(people))
        graph.add_edge(person, "livesIn", rng.choice(cities))
    for city in cities[:-1]:
        graph.add_edge(city, "isLocatedIn", "europe")
    return graph


def main() -> None:
    session = Session(build_graph(), num_workers=4)

    print("== 1. Lazy stages: nothing runs until you look ==")
    query = session.ucrpq("?x,?y <- ?x knows+ ?y")
    print(f"  handle constructed:   {query!r}")
    print(f"  ast head variables:   {[v.name for v in query.ast.head]}")
    print(f"  classes:              {sorted(query.classes) or ['C1']}")
    print(f"  canonical cache key:  {query.cache_key[:60]}...")
    plan = query.plan()
    print(f"  plan: cost={plan.cost:.1f} explored={plan.plans_explored}")
    print(f"  after staging:        {query!r}")

    print("\n== 2. Terminal actions: collect / count / exists / stream ==")
    print(f"  count():  {query.count()} pairs")
    print(f"  exists(): {query.exists()}")
    batches = [len(batch) for batch in query.stream(batch_size=100)]
    print(f"  stream(batch_size=100) batch sizes: {batches}")

    print("\n== 3. submit(): a future from the session's background worker ==")
    future = session.ucrpq("?x <- ?x livesIn/isLocatedIn+ europe").submit()
    print(f"  submitted; rows = {len(future.result().relation)}")

    print("\n== 4. The programmatic builder front-end ==")
    built = (session.relation("knows").closure()
             .concat("livesIn").between("?x", "?c"))
    text = session.ucrpq("?x,?c <- ?x knows+/livesIn ?c")
    print(f"  builder path:     {session.relation('knows').closure().concat('livesIn')}")
    print(f"  same canonical key as the text query: "
          f"{built.cache_key == text.cache_key}")
    print(f"  rows: {built.count()}")

    print("\n== 5. The Datalog front-end (differential baseline) ==")
    datalog = session.datalog("?x,?y <- ?x knows+ ?y")
    print(f"  program rules: {len(datalog.program.rules)}")
    print(f"  agrees with mu-RA front-end: "
          f"{datalog.collect().relation == query.collect().relation}")

    print("\n== 6. Prepared queries: plan once, bind many ==")
    prepared = session.prepare("?y <- :start knows+ ?y")
    print(f"  template params: {list(prepared.params)}")
    for start in ("p0", "p1", "p2", "p3"):
        bound = prepared.bind(start=start)
        bound.collect()
        hit = bound.last_plan_cache_hit
        print(f"  bind(start={start}): rows={bound.count():3d} "
              f"plan-cache {'hit' if hit else 'miss'}")
    # The session counts every plan lookup once, in the metrics registry.
    hits, misses = (get_registry().counter("repro_plan_cache_total",
                                           outcome=outcome).value
                    for outcome in ("hit", "miss"))
    print(f"  plan cache: {hits:.0f} hits / {misses:.0f} misses")

    print("\n== 7. Snapshots: mutations commit new versions, never purge ==")
    pinned = session.ucrpq("?x,?y <- ?x knows ?y")
    pinned.term  # noqa: B018 - first stage run: the handle pins the head
    before = session.snapshot()
    session.add_edges("knows", [("p0", "p39")])
    after = session.snapshot()
    print(f"  head: v{before.version} -> v{after.version} "
          f"(old snapshot still readable: {len(before['knows'])} rows)")
    print(f"  pinned handle reads v{pinned.pinned_snapshot.version}: "
          f"{pinned.count()} rows; a fresh handle reads v{after.version}: "
          f"{session.ucrpq('?x,?y <- ?x knows ?y').count()} rows")
    rerun = session.ucrpq("?x,?y <- ?x knows+ ?y")
    rerun.collect()
    print(f"  new-head plan-cache hit = {rerun.last_plan_cache_hit} "
          f"(new fingerprint, re-planned against fresh statistics)")

    print("\n== 8. Transactions: batch mutations, one commit (or rollback) ==")
    with session.transaction() as txn:
        txn.add_edges("knows", [("p39", "p0"), ("p38", "p1")])
        txn.remove_edges("knows", [("p0", "p39")])
    print(f"  committed as one version: now v{session.database_version}")
    try:
        with session.transaction() as txn:
            txn.add_edges("knows", [("pX", "pY")])
            raise RuntimeError("changed my mind")
    except RuntimeError:
        pass
    print(f"  aborted batch rolled back: still v{session.database_version}")

    print("\n== 9. Multi-graph sessions: one service, many datasets ==")
    tiny = LabeledGraph(name="tiny")
    tiny.add_edge("a", "knows", "b")
    tiny.add_edge("b", "knows", "c")
    session.attach("tiny", tiny)
    scoped = session.graph("tiny")
    print(f"  graphs: {session.graphs()}")
    print(f"  same query, per graph: default={query.count()} "
          f"tiny={scoped.ucrpq('?x,?y <- ?x knows+ ?y').count()}")
    view = session.read_view()
    session.add_edges("knows", [("p5", "p7")])
    print(f"  read_view stays at v{view.database_version} while the live "
          f"session moved to v{session.database_version}")

    print("\n== 10. explain(): the whole pipeline, no execution ==")
    print(session.ucrpq("?x <- ?x livesIn/isLocatedIn+ europe").explain())

    session.close()


if __name__ == "__main__":
    main()
