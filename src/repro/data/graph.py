"""Edge-labelled graphs and their relational views.

The paper evaluates queries over edge-labelled directed graphs stored as a
single facts table of triples ``(src, pred, trg)`` (e.g. the Yago dump) or
equivalently as one binary relation per predicate.  :class:`LabeledGraph`
is the container used throughout the reproduction:

* the dataset generators produce ``LabeledGraph`` instances,
* ``edges(label)`` returns the binary ``(src, trg)`` relation of one label,
* ``facts()`` returns the full triples relation (used by the non-regular
  queries such as same-generation, which are written over the facts table),
* ``reversed_label(label)`` gives access to the inverse edges, which is how
  UCRPQ inverse steps (``-label``) are evaluated.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from typing import Any

from ..errors import DatasetError, SchemaError
from .relation import Relation

#: Column names used for graph relations throughout the library.
SRC = "src"
TRG = "trg"
PRED = "pred"

#: Prefix marking an inverse label, as in the UCRPQ syntax ``-actedIn``.
INVERSE_PREFIX = "-"


class LabeledGraph:
    """A directed graph whose edges carry a string label (predicate).

    >>> g = LabeledGraph()
    >>> g.add_edge(1, "knows", 2)
    >>> g.add_edge(2, "knows", 3)
    >>> len(g.edges("knows"))
    2
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self._by_label: dict[str, set[tuple[Any, Any]]] = defaultdict(set)
        self._nodes: set[Any] = set()

    # -- Construction -------------------------------------------------------

    def add_edge(self, src: Any, label: str, trg: Any) -> None:
        """Add one labelled edge to the graph."""
        if not isinstance(label, str) or not label:
            raise DatasetError(f"edge labels must be non-empty strings, got {label!r}")
        if label.startswith(INVERSE_PREFIX):
            raise DatasetError(
                f"label {label!r} starts with the reserved inverse prefix "
                f"{INVERSE_PREFIX!r}"
            )
        self._by_label[label].add((src, trg))
        self._nodes.add(src)
        self._nodes.add(trg)

    def add_edges(self, edges: Iterable[tuple[Any, str, Any]]) -> None:
        """Add many ``(src, label, trg)`` edges."""
        for src, label, trg in edges:
            self.add_edge(src, label, trg)

    def add_pairs(self, label: str, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Bulk-add ``(src, trg)`` pairs under one label.

        The label is validated once and the pair sets are extended in
        bulk, which is the fast path :meth:`from_relation` and the
        dataset readers use instead of per-edge :meth:`add_edge` calls.
        """
        if not isinstance(label, str) or not label:
            raise DatasetError(f"edge labels must be non-empty strings, got {label!r}")
        if label.startswith(INVERSE_PREFIX):
            raise DatasetError(
                f"label {label!r} starts with the reserved inverse prefix "
                f"{INVERSE_PREFIX!r}"
            )
        # Normalize (and arity-check) every pair *before* touching the
        # graph, so a malformed pair cannot leave a half-applied bulk add
        # behind; an empty iterable must not phantom-register the label.
        normalized = {(src, trg) for src, trg in pairs}
        if not normalized:
            return
        self._by_label[label].update(normalized)
        for src, trg in normalized:
            self._nodes.add(src)
            self._nodes.add(trg)

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[Any, str, Any]],
                     name: str = "graph") -> "LabeledGraph":
        """Build a graph from an iterable of ``(src, label, trg)`` triples."""
        graph = cls(name=name)
        graph.add_edges(triples)
        return graph

    @classmethod
    def from_relation(cls, facts: Relation, name: str = "graph") -> "LabeledGraph":
        """Build a graph from a facts relation with columns src/pred/trg."""
        expected = tuple(sorted((SRC, PRED, TRG)))
        if facts.columns != expected:
            raise SchemaError(
                f"facts relation must have columns {expected}, got {facts.columns}"
            )
        graph = cls(name=name)
        # Resolve the column positions once and bulk-add per label instead
        # of round-tripping every row through a dictionary: the rows are
        # already aligned with the sorted schema.
        pred_at = facts.columns.index(PRED)
        src_at = facts.columns.index(SRC)
        trg_at = facts.columns.index(TRG)
        by_label: dict[str, set[tuple[Any, Any]]] = defaultdict(set)
        for row in facts.rows:
            by_label[row[pred_at]].add((row[src_at], row[trg_at]))
        for label, pairs in by_label.items():
            graph.add_pairs(label, pairs)
        return graph

    # -- Inspection ---------------------------------------------------------

    @property
    def nodes(self) -> frozenset:
        """All node identifiers appearing in the graph."""
        return frozenset(self._nodes)

    @property
    def labels(self) -> tuple[str, ...]:
        """The sorted list of (non-empty) edge labels."""
        return tuple(sorted(label for label, edges in self._by_label.items() if edges))

    def edge_count(self, label: str | None = None) -> int:
        """Number of edges, either of one label or of the whole graph."""
        if label is not None:
            return len(self._by_label.get(self._base_label(label), ()))
        return sum(len(edges) for edges in self._by_label.values())

    def iter_triples(self) -> Iterator[tuple[Any, str, Any]]:
        """Iterate over all ``(src, label, trg)`` triples."""
        for label in self.labels:
            for src, trg in sorted(self._by_label[label], key=repr):
                yield src, label, trg

    def __len__(self) -> int:
        return self.edge_count()

    def __repr__(self) -> str:
        return (f"LabeledGraph(name={self.name!r}, nodes={len(self._nodes)}, "
                f"edges={self.edge_count()}, labels={len(self.labels)})")

    # -- Relational views ----------------------------------------------------

    def edges(self, label: str, src: str = SRC, trg: str = TRG) -> Relation:
        """Return the binary relation of one label as columns ``src``/``trg``.

        Inverse labels (``-knows``) return the reversed edges, which is how
        UCRPQ inverse navigation steps are evaluated.
        """
        base = self._base_label(label)
        pairs = self._by_label.get(base, set())
        if self._is_inverse(label):
            pairs = {(b, a) for a, b in pairs}
        ordered = tuple(sorted((src, trg)))
        if ordered == (src, trg):
            rows = frozenset(pairs)
        else:
            rows = frozenset((b, a) for a, b in pairs)
        # The pairs are aligned with the sorted schema by construction, so
        # ingestion takes the same zero-copy path as the operators.
        return Relation._from_trusted(ordered, rows)

    def facts(self) -> Relation:
        """Return the whole graph as a single (src, pred, trg) relation."""
        columns = tuple(sorted((SRC, PRED, TRG)))  # ('pred', 'src', 'trg')
        rows = frozenset((label, s, t)
                         for label, pairs in self._by_label.items()
                         for s, t in pairs)
        return Relation._from_trusted(columns, rows)

    def relations(self) -> dict[str, Relation]:
        """Return a database mapping each label to its edge relation.

        The mapping also contains the inverse relations under ``-label``
        keys and the full facts table under the key ``"facts"``, which is
        the database layout expected by the query translator.
        """
        database: dict[str, Relation] = {}
        for label in self.labels:
            database[label] = self.edges(label)
            database[INVERSE_PREFIX + label] = self.edges(INVERSE_PREFIX + label)
        database["facts"] = self.facts()
        return database

    def successors(self, node: Any, label: str) -> set[Any]:
        """Return the targets of edges labelled ``label`` leaving ``node``."""
        base = self._base_label(label)
        pairs = self._by_label.get(base, set())
        if self._is_inverse(label):
            return {a for a, b in pairs if b == node}
        return {b for a, b in pairs if a == node}

    # -- Internal helpers ----------------------------------------------------

    @staticmethod
    def _is_inverse(label: str) -> bool:
        return label.startswith(INVERSE_PREFIX)

    @staticmethod
    def _base_label(label: str) -> str:
        return label[len(INVERSE_PREFIX):] if label.startswith(INVERSE_PREFIX) else label
