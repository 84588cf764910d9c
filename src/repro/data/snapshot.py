"""Immutable, versioned database snapshots with structural sharing.

A :class:`DatabaseSnapshot` is the unit of data ownership of the Session
API: a frozen mapping from relation names to immutable
:class:`~repro.data.relation.Relation` objects, tagged with a monotonic
``version`` and with per-relation version counters.  The paper's
Dist-mu-RA engine assumes a frozen database per query; snapshots make
that assumption explicit and enforceable under concurrent mutation:

* **Immutability** — a snapshot never changes.  Every reader (a pinned
  query handle, an in-flight stream, a broadcast to the simulated
  cluster, the Datalog baseline's EDB extraction) sees exactly the
  version it started from, without holding any lock.
* **Copy-on-write commits** — :meth:`DatabaseSnapshot.mutate` builds the
  *successor* snapshot: only the touched relations are replaced, and
  every untouched :class:`Relation` object (and therefore its memoized
  hash indexes and statistics) is shared between the old and the new
  version.  A commit summarizes nothing: its cost is the touched
  relations themselves plus a few dictionary copies.
* **Version fingerprints** — :meth:`fingerprint` returns the sorted
  ``(name, version)`` tuple of a set of relations, which is the
  database half of every result-cache key.  Because those keys are
  version-qualified, mutations never purge the result cache: entries for
  old versions stop being looked up by head readers.  (Plan-cache keys
  name the schemas and ``StatisticsCatalog.signature`` values of the
  relations instead — see :mod:`repro.service.plan_cache`.)
* **Snapshot-scoped statistics and schemas** — the cost model's
  :class:`~repro.data.stats.StatisticsCatalog` is a read-through view
  over the snapshot's own relations, and the schema mapping travels
  *with* the snapshot, so an unlocked plan phase can never pair a new
  fingerprint with stale statistics (or vice versa): both come from the
  same immutable object.  Statistics are computed at the plan phase's
  first read and memoized on each relation.

Snapshots are plain :class:`~collections.abc.Mapping` objects, and they
are the one database type below the session: the evaluator, the
physical executor and the fixpoint plans take any ``name -> Relation``
mapping and wrap a plain one once, where it enters, with
:func:`as_snapshot`.  So the value dictionary, the operand memo and the
seed shapes always ride on a snapshot, and nothing below asks which
kind of database it holds.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterator, Mapping

from ..check.sanitizer import ordered_lock
from ..errors import SchemaError
from ..obs.metrics import get_registry
from .relation import Relation
from .stats import StatisticsCatalog

#: Name given to the default graph of a session.
DEFAULT_GRAPH = "default"

#: Private miss sentinel of the derived-artifact memo: a computed ``None``
#: (or any falsy artifact) must be cached like any other value instead of
#: being recomputed on every call.
_DERIVED_MISS = object()

#: Snapshot ``derived()`` key under which the operand memo lives.
_OPERAND_MEMO_KEY = "operand_memo"

#: Rows the operand memo of a snapshot may retain, per row the snapshot
#: itself holds: what is derived from the data (renames, one-step joins
#: of base relations) never outweighs the data it was derived from.
OPERAND_MEMO_ROWS_PER_SNAPSHOT_ROW = 1


class DatabaseSnapshot(Mapping):
    """A frozen, versioned ``name -> Relation`` database.

    Instances are created by :meth:`from_graph` / :meth:`from_relations`
    (version 0) and by :meth:`mutate` (the copy-on-write successor).
    The mapping interface is read-only; ``snapshot["knows"]`` returns the
    relation exactly as a plain database dict would.
    """

    __slots__ = ("graph_name", "version", "_relations", "_versions",
                 "_schemas", "_catalog", "_derived")

    def __init__(self, relations: Mapping[str, Relation], *,
                 graph_name: str = DEFAULT_GRAPH):
        for name, relation in relations.items():
            if not isinstance(relation, Relation):
                raise SchemaError(
                    f"database entry {name!r} is not a Relation: {relation!r}")
        self.graph_name = graph_name
        self.version = 0
        self._relations: dict[str, Relation] = dict(relations)
        for relation in self._relations.values():
            relation._freeze()
        self._versions: dict[str, int] = dict.fromkeys(self._relations, 0)
        self._schemas: dict[str, tuple[str, ...]] = {
            name: relation.columns
            for name, relation in self._relations.items()}
        self._catalog = StatisticsCatalog(self._relations)
        #: Memo slot for derived artifacts computed *from* this snapshot
        #: (e.g. the Datalog EDB).  Immutable data, so entries never go
        #: stale; concurrent writers race benignly to identical values.
        self._derived: dict[str, object] = {}

    # -- Constructors ------------------------------------------------------

    @classmethod
    def from_graph(cls, graph, *, graph_name: str | None = None
                   ) -> "DatabaseSnapshot":
        """Ingest a :class:`~repro.data.graph.LabeledGraph` at version 0.

        The snapshot gets one binary relation per label, the ``-label``
        inverses and the ``facts`` triple table — the layout the query
        translator expects (see :meth:`LabeledGraph.relations`).
        """
        name = graph_name if graph_name is not None \
            else getattr(graph, "name", DEFAULT_GRAPH)
        return cls(graph.relations(), graph_name=name)

    @classmethod
    def from_relations(cls, relations: Mapping[str, Relation], *,
                       graph_name: str = DEFAULT_GRAPH) -> "DatabaseSnapshot":
        """Wrap an existing ``name -> Relation`` mapping at version 0."""
        return cls(relations, graph_name=graph_name)

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, name: str) -> Relation:
        return self._relations[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    # -- Versioning --------------------------------------------------------

    def relation_version(self, name: str) -> int:
        """Version at which ``name`` last changed (0 for unknown names)."""
        return self._versions.get(name, 0)

    def fingerprint(self, names) -> tuple[tuple[str, int], ...]:
        """Sorted ``(name, version)`` identity of the given relations.

        Unknown names are included with version 0, so a cache entry built
        before a relation existed stops matching once it appears.  This
        tuple is the database half of every result-cache key.
        """
        return tuple((name, self.relation_version(name))
                     for name in sorted(set(names)))

    # -- Snapshot-scoped derived state -------------------------------------

    @property
    def catalog(self) -> StatisticsCatalog:
        """The statistics of this snapshot's relations (a read-through view).

        Reading schemas and statistics from one snapshot object is what
        lets the plan phase run without the execution lock: a plan-cache
        key and the ranking it stands for come from the same frozen data.
        """
        return self._catalog

    @property
    def schemas(self) -> dict[str, tuple[str, ...]]:
        """``name -> columns`` mapping (the rewriter/physical layer input)."""
        return self._schemas

    # -- Copy-on-write commits ---------------------------------------------

    def mutate(self, changes: Mapping[str, Relation]) -> "DatabaseSnapshot":
        """Return the successor snapshot with ``changes`` applied.

        Structural sharing: the relations, versions and schemas of
        every *untouched* name are shared with this snapshot (same
        ``Relation`` objects, so their memoized hash indexes and
        statistics survive the commit).  Nothing is summarized here: the
        successor's catalog is a view that computes a touched relation's
        statistics when the plan phase first reads them.  Commit cost is
        the touched relations plus O(#names) dictionary copies.
        """
        if not changes:
            return self
        successor = DatabaseSnapshot.__new__(DatabaseSnapshot)
        successor.graph_name = self.graph_name
        successor.version = self.version + 1
        successor._relations = {**self._relations, **changes}
        successor._versions = dict(self._versions)
        successor._schemas = dict(self._schemas)
        successor._catalog = StatisticsCatalog(successor._relations)
        successor._derived = {}
        for name, relation in changes.items():
            relation._freeze()
            successor._versions[name] = successor.version
            successor._schemas[name] = relation.columns
        return successor

    def relabeled(self, graph_name: str) -> "DatabaseSnapshot":
        """This snapshot's content under another graph name.

        Shares everything (relations, versions, schemas, the statistics
        view) with this snapshot; only the label differs.  Used when an
        existing snapshot is attached to a session under a new name.
        """
        if graph_name == self.graph_name:
            return self
        twin = DatabaseSnapshot.__new__(DatabaseSnapshot)
        twin.graph_name = graph_name
        twin.version = self.version
        twin._relations = self._relations
        twin._versions = self._versions
        twin._schemas = self._schemas
        twin._catalog = self._catalog
        twin._derived = {}
        return twin

    # -- Derived-artifact memo ---------------------------------------------

    def derived(self, key: str, compute):
        """Memoize ``compute(self)`` on the snapshot under ``key``.

        Used for per-snapshot derived artifacts such as the Datalog EDB.
        Safe without a lock: concurrent callers may both compute, but
        they compute identical values from immutable inputs.  A private
        sentinel marks the miss, so a legitimately ``None`` (or falsy)
        artifact is computed once and then served from the memo.
        """
        value = self._derived.get(key, _DERIVED_MISS)
        if value is _DERIVED_MISS:
            value = compute(self)
            self._derived[key] = value
        return value

    # -- Introspection -----------------------------------------------------

    def __repr__(self) -> str:
        return (f"DatabaseSnapshot(graph={self.graph_name!r}, "
                f"version={self.version}, relations={len(self._relations)})")


class OperandMemo:
    """Row-weighted LRU of the evaluated operands of one snapshot.

    An *operand* is a recursion-constant subterm of a fixpoint's variable
    part (``rename(E)``, ``hasWonPrize/-hasWonPrize``): a function of the
    base relations only, so on an immutable snapshot it is an index-like
    artifact.  Keeping the evaluated :class:`Relation` *object* stable
    across executions is the point — its columnar encoding and its hash
    indexes are memoized on the object, so all three are paid once per
    snapshot version instead of once per execution (or per task).

    The weight of an entry is its row count and the budget is fixed at
    creation; least-recently-used entries go first.  What the caller
    marks inadmissible (the evaluator: anything containing a fixpoint) or
    what alone exceeds the budget is handed back without being retained.
    Every outcome counts into ``repro_operand_memo_total``.
    """

    __slots__ = ("budget", "_entries", "_rows", "_lock")

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: OrderedDict[Hashable, Relation] = OrderedDict()
        self._rows = 0
        self._lock = ordered_lock("snapshot.operand_memo")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    @property
    def retained_rows(self) -> int:
        """Total rows of the retained operands (never above ``budget``)."""
        return self._rows

    def lookup(self, key: Hashable) -> Relation | None:
        """The retained operand under ``key`` (now most recent), or None."""
        with self._lock:
            relation = self._entries.get(key)
            if relation is not None:
                self._entries.move_to_end(key)
        if relation is not None:
            _count_operand("hit")
        return relation

    def offer(self, key: Hashable, relation: Relation, *,
              admissible: bool = True) -> Relation:
        """Retain a freshly evaluated operand if it may and does fit.

        Returns the relation every caller should use from now on: the
        offered one, or — when another thread retained the same operand
        first — that earlier object, so indexes keep a single home.
        """
        weight = len(relation)
        if not admissible or weight > self.budget:
            _count_operand("rejected")
            return relation
        evicted = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = relation
            self._rows += weight
            while self._rows > self.budget:
                _, oldest = self._entries.popitem(last=False)
                self._rows -= len(oldest)
                evicted += 1
        _count_operand("miss")
        if evicted:
            _count_operand("evicted", evicted)
        return relation

    def __repr__(self) -> str:
        return (f"OperandMemo(entries={len(self._entries)}, "
                f"rows={self._rows}, budget={self.budget})")


def _count_operand(outcome: str, amount: int = 1) -> None:
    get_registry().counter("repro_operand_memo_total",
                           outcome=outcome).inc(amount)


def _new_operand_memo(snapshot: DatabaseSnapshot) -> OperandMemo:
    rows = sum(len(relation) for relation in snapshot.values())
    return OperandMemo(OPERAND_MEMO_ROWS_PER_SNAPSHOT_ROW * rows)


def operand_memo(snapshot: DatabaseSnapshot) -> OperandMemo:
    """The operand memo of a snapshot, created at its first use."""
    return snapshot.derived(_OPERAND_MEMO_KEY, _new_operand_memo)


def as_snapshot(database: Mapping[str, Relation]) -> DatabaseSnapshot:
    """The database a query reads: a snapshot as it is, any other
    ``name -> Relation`` mapping wrapped once at version 0.

    Everything below a session reads this one type, so a dictionary,
    an operand memo or a seed shape always has a snapshot to live on,
    and a broadcast ships the snapshot's own relations — structural
    sharing all the way down to the per-relation hash indexes.
    """
    if isinstance(database, DatabaseSnapshot):
        return database
    return DatabaseSnapshot.from_relations(database)
