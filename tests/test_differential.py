"""Cross-front-end differential tests on seeded random graphs.

One query, many ways to answer it — all through one :class:`Session`: the
distributed fixpoint plans (Pgld, Pplw^s, and ``auto``, the default
strategy every end-to-end benchmark query runs under), the two
execution engines (columnar kernels, row engine), the centralized mu-RA
evaluator, and the Datalog front-end (``session.datalog``, the same
left-linear translation the BigDatalog baseline uses).  Every combination
must produce exactly the same relation — any divergence is either a
distribution bug (fixpoint splitting, final union), a concurrency bug
(snapshot isolation, metrics races), or a semantics bug in one of the
front-end compilers.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import QueryService, Session
from repro.data import LabeledGraph, row_mode
from repro.data.columnar import CodeRows, ValueDictionary
from repro.data.relation import Relation
from repro.datasets import (erdos_renyi_graph, uniprot_graph,
                            yago_like_graph)
from repro.distributed import AUTO, PGLD, PPLW_SPARK
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.workloads import uniprot_queries, yago_queries

ALL_PLANS = (PGLD, PPLW_SPARK, AUTO)

#: Worker-count axis: one partition (no split), an odd split, and a split
#: wide enough that some partitions hold only a few nodes.
WORKER_COUNTS = (1, 3, 8)

CLOSURE_QUERY = "?x,?y <- ?x edge+ ?y"
CONCAT_QUERY = "?x,?y <- ?x a+/b+ ?y"
#: Unoptimized, the outer closure's variable part joins the recursive
#: variable against a nested recursion-constant fixpoint (``b+``).
NESTED_QUERY = "?x,?y <- ?x (a/b+)+ ?y"


def canonical(relation: Relation) -> tuple:
    """Column-order-independent identity of a relation."""
    order = tuple(sorted(relation.columns))
    indices = [relation.columns.index(column) for column in order]
    return order, frozenset(tuple(row[i] for i in indices)
                            for row in relation.rows)


def centralized_answer(graph, query_text: str) -> tuple:
    session = Session(graph, optimize=False)
    term = session.ucrpq(query_text).term
    return canonical(session.evaluate_centralized(term))


@pytest.fixture(scope="module")
def closure_reference(seeded_random_graph):
    return centralized_answer(seeded_random_graph, CLOSURE_QUERY)


@pytest.fixture(scope="module")
def concat_reference(seeded_two_label_graph):
    return centralized_answer(seeded_two_label_graph, CONCAT_QUERY)


@pytest.fixture(scope="module")
def nested_reference(seeded_two_label_graph):
    return centralized_answer(seeded_two_label_graph, NESTED_QUERY)


@pytest.fixture(scope="module")
def tree_reference(seeded_tree_graph):
    return centralized_answer(seeded_tree_graph, CLOSURE_QUERY)


class TestPlanMatrix:
    """Every plan equals the centralized answer."""

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure(self, seeded_random_graph, closure_reference,
                     strategy):
        with Session(seeded_random_graph, num_workers=4,
                     optimize=False) as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == closure_reference
        assert result.metrics.tasks_launched > 0

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_concatenated_closures(self, seeded_two_label_graph,
                                   concat_reference, strategy, num_workers):
        with Session(seeded_two_label_graph, num_workers=num_workers,
                     optimize=False) as session:
            result = session.ucrpq(CONCAT_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == concat_reference

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_tree_closure(self, seeded_tree_graph, tree_reference, strategy,
                          num_workers):
        with Session(seeded_tree_graph, num_workers=num_workers,
                     optimize=False) as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == tree_reference


class TestOptimizedPlansStillAgree:
    """The rewriter must not change the answer, whatever the plan."""

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure_with_optimizer(self, seeded_random_graph,
                                    closure_reference, strategy, num_workers):
        with Session(seeded_random_graph, num_workers=num_workers,
                     optimize=True) as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == closure_reference

    def test_nested_closure_in_the_default_configuration(
            self, seeded_two_label_graph, nested_reference):
        """``(a/b+)+`` used to crash the planner: pushing the outer join
        into ``b+`` made an explored variant mutually recursive."""
        answer = Session(seeded_two_label_graph).ucrpq(NESTED_QUERY).collect()
        assert canonical(answer.relation) == nested_reference


class TestCrossFrontEnd:
    """The UCRPQ and Datalog front-ends agree over one shared session."""

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_closure_matches_datalog(self, seeded_random_graph,
                                     closure_reference, num_workers):
        with Session(seeded_random_graph,
                     num_workers=num_workers) as session:
            result = session.datalog(CLOSURE_QUERY).collect()
        assert canonical(result.relation) == closure_reference

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_concat_matches_datalog(self, seeded_two_label_graph,
                                    concat_reference, num_workers):
        with Session(seeded_two_label_graph,
                     num_workers=num_workers) as session:
            result = session.datalog(CONCAT_QUERY).collect()
        assert canonical(result.relation) == concat_reference

    def test_tree_matches_datalog(self, seeded_tree_graph, tree_reference):
        with Session(seeded_tree_graph, num_workers=4) as session:
            result = session.datalog(CLOSURE_QUERY).collect()
        assert canonical(result.relation) == tree_reference

    def test_both_front_ends_one_session(self, seeded_random_graph,
                                         closure_reference):
        """Front-ends share a session (and its caches) without interfering."""
        with Session(seeded_random_graph, num_workers=4) as session:
            mu = session.ucrpq(CLOSURE_QUERY).collect().relation
            datalog = session.datalog(CLOSURE_QUERY).collect().relation
            assert canonical(mu) == canonical(datalog) == closure_reference


#: Execution-engine axis: the columnar kernels (the default) and the
#: indexed row engine (``row_mode``).
ENGINE_MODES = ("columnar", "row")

#: Recursive Uniprot workload queries small enough for a unit-test graph.
UNIPROT_DIFFERENTIAL_QIDS = ("Q42", "Q45", "Q47")


def run_in_mode(mode: str, fn):
    if mode == "row":
        with row_mode():
            return fn()
    return fn()


@pytest.fixture(scope="module")
def uniprot_differential_graph():
    return uniprot_graph(num_edges=400, seed=11)


class TestColumnarAxis:
    """Columnar kernels vs row engine.

    The default-on columnar path is already exercised by every other test
    in this module; this class pins the *comparisons*: whatever the plan
    or workload query, flipping the engine must not change one row.
    """

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure_every_plan(self, seeded_random_graph, closure_reference,
                                strategy, mode):
        def run():
            with Session(seeded_random_graph, num_workers=4,
                         optimize=False) as session:
                return session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        result = run_in_mode(mode, run)
        assert canonical(result.relation) == closure_reference

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_concat_columnar_vs_row(self, seeded_two_label_graph,
                                    concat_reference, strategy):
        def run():
            with Session(seeded_two_label_graph, num_workers=4,
                         optimize=False) as session:
                return session.ucrpq(CONCAT_QUERY).collect(strategy=strategy)
        columnar = run_in_mode("columnar", run)
        row = run_in_mode("row", run)
        assert (canonical(columnar.relation) == canonical(row.relation)
                == concat_reference)

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_row_engine_every_plan(self, seeded_two_label_graph,
                                   nested_reference, strategy, num_workers):
        """The row step is one interpreter wherever it runs: on the
        driver (which resolves the nested fixpoint for every plan), in a
        partition task (``Pgld``), in a local loop (``Pplw``)."""
        with row_mode(), Session(seeded_two_label_graph,
                                 num_workers=num_workers,
                                 optimize=False) as session:
            result = session.ucrpq(NESTED_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == nested_reference

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_prepared_bindings_match_centralized(self, seeded_two_label_graph,
                                                 mode, num_workers):
        """A prepared binding hands resolved operands and the snapshot's
        dictionary to each local-loop task.  The second pass finds the
        operands on the snapshot, encoded and indexed; both passes answer
        what the centralized evaluator answers for the bound query."""
        template = "?y <- :c (a/-a)+ ?y"

        def answers():
            with Session(seeded_two_label_graph,
                         num_workers=num_workers) as session:
                prepared = session.prepare(template)
                nodes = sorted(session.snapshot()["a"].column_values("src"),
                               key=repr)[:3]
                served, expected = [], []
                for _ in range(2):
                    for node in nodes:
                        bound = prepared.bind(c=node)
                        served.append(canonical(bound.run_once(
                            use_result_cache=False)[0].relation))
                        expected.append(canonical(
                            session.evaluate_centralized(bound.term)))
                return served, expected
        served, expected = run_in_mode(mode, answers)
        assert any(rows for _, rows in served)
        assert served == expected

    @pytest.mark.parametrize("num_workers", (1, 2))
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_row_mode_reaches_every_task(self, seeded_random_graph,
                                         closure_reference, strategy,
                                         num_workers):
        """``row_mode()`` is context-local and the tasks run on the
        calling thread, so a run under it iterates on the row engine
        only — in the ``Pgld`` partition tasks and the ``Pplw`` local
        loops alike — even after a run on the kernels."""
        tracer = Tracer(enabled=True)
        with Session(seeded_random_graph, num_workers=num_workers,
                     optimize=False) as session:
            query = session.ucrpq(CLOSURE_QUERY)
            query.run_once(strategy=strategy, use_result_cache=False)
            with row_mode(), tracing.activate(tracer):
                result, _, _ = query.run_once(strategy=strategy,
                                              use_result_cache=False)
        engines = {dict(record.attributes)["engine"]
                   for record in tracer.records()
                   if record.name == "fixpoint.iteration"}
        assert engines == {"row"}
        assert canonical(result.relation) == closure_reference

    @pytest.mark.parametrize("qid", UNIPROT_DIFFERENTIAL_QIDS)
    def test_uniprot_workload_queries(self, uniprot_differential_graph,
                                      qid):
        query = {q.qid: q for q in
                 uniprot_queries(uniprot_differential_graph,
                                 subset=(qid,))}[qid]

        def run():
            with Session(uniprot_differential_graph, num_workers=3,
                         optimize=True) as session:
                return session.ucrpq(query.text).collect()
        results = {mode: canonical(run_in_mode(mode, run).relation)
                   for mode in ENGINE_MODES}
        assert results["columnar"] == results["row"]


class TestWorkerCountInvariance:
    """The answer must not depend on how many workers split the fixpoint."""

    @pytest.mark.parametrize("num_workers", (1, 2, 5))
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure(self, seeded_random_graph, closure_reference,
                     strategy, num_workers):
        with Session(seeded_random_graph, num_workers=num_workers,
                     optimize=False) as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == closure_reference


#: The UCRPQ shapes of the end-to-end benchmark's ``recursive-cold``
#: workload (Yago Q8, Q9, Q15; Uniprot Q26, Q43, Q46; transitive
#: closure), over two labels.
RECURSIVE_COLD_SHAPES = (
    "?x,?y <- ?x a+/b+ ?y",
    "?x,?y <- ?x (a|b)+ ?y",
    "?x,?y <- ?x (a/-a)+/b ?y",
    "?x,?y <- ?x -a/(b/-b)+ ?y",
    "?x,?y <- ?x (-a/a)+ ?y",
    "?x,?y <- ?x (-a/a)+/b ?y",
    "?x,?y <- ?x a+ ?y",
)

#: What an execution is seen to communicate, launch, iterate and index.
TRAFFIC_COUNTERS = (
    "shuffles", "tuples_shuffled", "broadcasts", "tuples_broadcast",
    "tasks_launched", "task_waves", "global_iterations", "local_iterations",
    "duplicates_eliminated", "final_union_skipped",
    "partitioning", "tuples_processed_per_worker", "index_builds",
    "index_reuses")


#: Node ids on which the orders a split may follow disagree: ``repr``
#: order (``"10" < "9"``, ``"-1" < "0"``), code order (first seen) and
#: hash order — quotes, backslashes and non-ASCII characters included.
NODE_IDS = st.one_of(st.integers(-1_000, 1_000),
                     st.text(alphabet="ab'\"\\é→ ", min_size=1,
                             max_size=4))


@st.composite
def two_label_graphs(draw, max_edges: int = 10):
    """Small random graphs in which both labels have at least one edge.

    On six nodes the fan-out is low and the kernels' closures run flat;
    on three it is high, and a seed holds enough rows per stable key for
    the loop to run grouped on that column.
    """
    nodes = draw(st.sampled_from((6, 3)))
    node = st.sampled_from(draw(st.lists(NODE_IDS, min_size=nodes,
                                         max_size=nodes, unique=True)))
    graph = LabeledGraph(name="hypothesis-ab")
    for label in ("a", "b"):
        pairs = draw(st.lists(st.tuples(node, node), min_size=1,
                              max_size=max_edges))
        graph.add_edges([(src, label, trg) for src, trg in pairs])
    return graph


class TestEnginesAgreeOnRandomGraphs:
    """The fused step is bound by what the row engine answers *and* by
    what it is seen to do: same rows, same traffic, on every plan."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=two_label_graphs(),
           text=st.sampled_from(RECURSIVE_COLD_SHAPES),
           strategy=st.sampled_from(ALL_PLANS))
    def test_same_answer_and_same_traffic(self, graph, text, strategy):
        def run():
            with Session(graph, num_workers=3) as session:
                return session.ucrpq(text).run_once(
                    strategy=strategy, use_result_cache=False)[0]
        columnar = run()
        with row_mode():
            row = run()
        assert canonical(columnar.relation) == canonical(row.relation)
        assert {name: getattr(columnar.metrics, name)
                for name in TRAFFIC_COUNTERS} \
            == {name: getattr(row.metrics, name) for name in TRAFFIC_COUNTERS}


class TestSplitsAgreeAcrossRepresentations:
    """A split of code tuples places every row where the row engine's
    split places its decoded row, so ``Pgld`` partitions and ``Pplw``
    chunks hold the same rows on either engine.

    Values that compare equal but print differently (``1`` and ``True``,
    ``0.0`` and ``-0.0``) intern to one code, so the decoded relation
    cannot say which of them was meant: they are left out.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), arity=st.integers(1, 3),
           parts=st.integers(1, 5))
    def test_code_splits_place_rows_as_the_row_splits(self, data, arity,
                                                      parts):
        columns = ("a", "b", "c")[:arity]
        relation = Relation(columns, data.draw(st.sets(
            st.tuples(*[NODE_IDS] * arity), max_size=30)))
        encoded = CodeRows.encode(relation, ValueDictionary())
        assert [part.to_relation()
                for part in encoded.split_round_robin(parts)] \
            == relation.split_round_robin(parts)
        keys = data.draw(st.sets(st.sampled_from(columns), min_size=1))
        assert [part.to_relation()
                for part in encoded.split_by_columns(keys, parts)] \
            == relation.split_by_columns(keys, parts)


class TestWritesAxis:
    """add → remove → compare: whatever a commit did to the cached result
    (resumed it, invalidated it), the next read equals a cold row-engine
    evaluation of the edited graph."""

    ADDED = ((0, "a", 29), (29, "b", 100), (100, "b", 101))

    @staticmethod
    def cold(triples, text: str) -> tuple:
        graph = LabeledGraph(name="edited")
        graph.add_edges(triples)
        with row_mode():
            return centralized_answer(graph, text)

    @pytest.mark.parametrize("text", RECURSIVE_COLD_SHAPES)
    def test_add_then_remove(self, seeded_two_label_graph, text):
        triples = set(seeded_two_label_graph.iter_triples())
        # Two original edges and one of the added ones go again.
        removed = (min(triples), max(triples), self.ADDED[1])
        with Session(seeded_two_label_graph, num_workers=3) as session:
            session.ucrpq(text).collect()
            for edits, commit in ((self.ADDED, "add_edges"),
                                  (removed, "remove_edges")):
                with session.transaction() as txn:
                    for src, label, trg in edits:
                        getattr(txn, commit)(label, [(src, trg)])
                triples = triples | set(edits) if commit == "add_edges" \
                    else triples - set(edits)
                served = session.ucrpq(text).collect()
                assert canonical(served.relation) == self.cold(triples, text)


#: The query ids of the benchmark's ``recursive-cold`` workload.
RECURSIVE_COLD_QUERIES = ("YQ8", "YQ9", "YQ15", "UQ26", "UQ43", "UQ46", "TC")


class TestServedAxis:
    """Streamed vs buffered vs the row engine, over the wire.

    Both endpoints take their rows from one admission path and one
    canonical order, so a stream (forced through cursor pages) must list
    exactly what ``/v1/query`` lists, in the same order — and both must
    be the row engine's answer.
    """

    @pytest.fixture(scope="class")
    def served(self):
        from repro.net import HttpServer, ServerThread, ServiceClient
        uniprot = uniprot_graph(num_edges=400, seed=11)
        database: dict = {}
        for graph in (yago_like_graph(scale=40, seed=7), uniprot,
                      erdos_renyi_graph(40, num_edges=90, seed=8,
                                        labels=("a1", "a2"))):
            for name, relation in graph.relations().items():
                database[name] = (relation if name not in database
                                  else database[name].union(relation))
        texts = {f"Y{q.qid}": q.text for q in yago_queries()}
        texts.update({f"U{q.qid}": q.text for q in uniprot_queries(uniprot)})
        texts["TC"] = "?x,?y <- ?x a1+ ?y"
        with QueryService(Session(database, num_workers=3),
                          own_engine=True) as service:
            running = ServerThread(HttpServer(service)).start()
            try:
                with ServiceClient(port=running.port, timeout=30.0) as client:
                    yield service.session, client, texts
            finally:
                running.stop()

    @pytest.mark.parametrize("shape", RECURSIVE_COLD_QUERIES)
    def test_streamed_buffered_and_row_engine_rows(self, served, shape):
        session, client, texts = served
        text = texts[shape]
        with row_mode():
            oracle, _, _ = session.ucrpq(text).run_once(
                use_plan_cache=False, use_result_cache=False)
        expected = [list(row)
                    for row in sorted(oracle.relation.rows, key=repr)]
        assert expected, "a shape with no answers compares nothing"
        streamed = list(client.stream_rows(text, batch_size=16,
                                           page_limit=40))
        assert streamed == client.query(text)["rows"] == expected
