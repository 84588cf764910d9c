"""Stateful differential test of the write path.

Hypothesis drives one served :class:`Session` through interleaved edge
additions and removals, transactions (committed and aborted), pinned
read views and reads of cached closures.  After every step, every answer
the session serves — at the head and through each pinned view — must
equal a cold row-engine evaluation of the edges that snapshot version
holds.  Whatever a commit's retention rule keeps or drops from the
result cache is only allowed to be faster, never different.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro import Session
from repro.data import LabeledGraph, Relation, row_mode

NODES = tuple(f"n{i}" for i in range(6))
#: One edge per label outside the drawn node domain: never removed, so
#: both relations exist in every version and in every oracle graph.
ANCHORS = frozenset({("p", "a", "q"), ("p", "b", "q")})
#: Cyclic enough that rows have several derivations.
START = ANCHORS | {
    ("n0", "a", "n0"), ("n1", "a", "n3"), ("n1", "a", "n5"),
    ("n2", "a", "n0"), ("n4", "a", "n4"),
    ("n0", "b", "n1"), ("n0", "b", "n5"), ("n1", "b", "n2"),
    ("n1", "b", "n4"), ("n2", "b", "n2"), ("n3", "b", "n5"),
    ("n4", "b", "n0")}

PLAIN = "?x,?y <- ?x a+ ?y"
MERGED = "?x,?y <- ?x a+/b+ ?y"
ALTERNATION = "?x,?y <- ?x (a|b)+ ?y"
TEMPLATE = "?y <- :start a+ ?y"
BOUND = "n0"
QUERIES = (PLAIN, MERGED, ALTERNATION, TEMPLATE)

edges = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from("ab"),
                           st.sampled_from(NODES)),
                 min_size=1, max_size=3)

#: (edges, query) -> answer; versions recur across steps and examples.
_ORACLE: dict[tuple[frozenset, str], Relation] = {}


def serve(session: Session, query: str) -> Relation:
    if query == TEMPLATE:
        handle = session.prepare(TEMPLATE).bind(start=BOUND)
    else:
        handle = session.ucrpq(query)
    return handle.collect().relation


def cold(triples: frozenset, query: str) -> Relation:
    key = (triples, query)
    if key not in _ORACLE:
        graph = LabeledGraph(name="oracle")
        graph.add_edges(sorted(triples))
        text = query.replace(":start", BOUND)
        with Session(graph, optimize=False) as session, row_mode():
            _ORACLE[key] = session.ucrpq(text).collect().relation
    return _ORACLE[key]


class WriteMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.head = frozenset(START)
        graph = LabeledGraph(name="machine")
        graph.add_edges(sorted(self.head))
        self.session = Session(graph, num_workers=2)
        self.txn = None
        self.pending = self.head
        self.pinned: list[tuple[Session, frozenset]] = []
        self.watched = set(QUERIES)

    def teardown(self):
        self.session.close()

    def _write(self, triples, removing: bool) -> None:
        target = self.txn if self.txn is not None else self.session
        for label in "ab":
            pairs = [(s, t) for s, lab, t in triples if lab == label]
            if pairs:
                (target.remove_edges if removing else target.add_edges)(
                    label, pairs)
        edited = self.pending - set(triples) if removing \
            else self.pending | set(triples)
        self.pending = frozenset(edited)
        if self.txn is None:
            self.head = self.pending

    @rule(triples=edges)
    def add(self, triples):
        self._write(triples, removing=False)

    @rule(triples=edges)
    def remove(self, triples):
        self._write(triples, removing=True)

    @rule(data=st.data())
    def remove_existing(self, data):
        removable = sorted(self.pending - ANCHORS)
        if removable:
            self._write([data.draw(st.sampled_from(removable))],
                        removing=True)

    @precondition(lambda self: self.txn is None)
    @rule()
    def begin(self):
        self.txn = self.session.transaction()

    @precondition(lambda self: self.txn is not None)
    @rule()
    def commit(self):
        self.txn.commit()
        self.txn, self.head = None, self.pending

    @precondition(lambda self: self.txn is not None)
    @rule()
    def abort(self):
        self.txn.rollback()
        self.txn, self.pending = None, self.head

    @precondition(lambda self: len(self.pinned) < 3)
    @rule()
    def pin(self):
        self.pinned.append((self.session.read_view(), self.head))

    @rule(queries=st.sets(st.sampled_from(QUERIES), min_size=1))
    def watch(self, queries):
        """Change which queries are read: an unwatched query's cached
        entry falls versions behind while commits go on."""
        self.watched = queries

    @invariant()
    def served_answers_equal_a_cold_row_evaluation(self):
        for query in sorted(self.watched):
            assert serve(self.session, query) == cold(self.head, query), \
                ("head", query, sorted(self.head))
            for view, triples in self.pinned:
                assert serve(view, query) == cold(triples, query), \
                    ("pinned", query, sorted(triples))


TestWrites = WriteMachine.TestCase
TestWrites.settings = settings(max_examples=50, stateful_step_count=20,
                               deadline=None, derandomize=True)
