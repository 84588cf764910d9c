"""Relational data model: tuples, relations, predicates, graphs, statistics."""

from .columnar import (ColumnarRelation, ValueDictionary, columnar_enabled,
                       row_mode, snapshot_dictionary)
from .graph import INVERSE_PREFIX, PRED, SRC, TRG, LabeledGraph
from .io import (read_graph_tsv, read_relation_tsv, write_graph_tsv,
                 write_relation_tsv)
from .predicates import (And, ColumnEq, Compare, Eq, In, Not, Or, Predicate,
                         TruePredicate, conjunction)
from .relation import Relation
from .snapshot import DEFAULT_GRAPH, DatabaseSnapshot
from .stats import RelationStats, StatisticsCatalog
from .storage import DeltaAccumulator, HashIndex, RelationBuilder
from .tuples import Tup

__all__ = [
    "And",
    "ColumnEq",
    "ColumnarRelation",
    "Compare",
    "DEFAULT_GRAPH",
    "DatabaseSnapshot",
    "DeltaAccumulator",
    "Eq",
    "HashIndex",
    "In",
    "INVERSE_PREFIX",
    "LabeledGraph",
    "Not",
    "Or",
    "PRED",
    "Predicate",
    "Relation",
    "RelationBuilder",
    "RelationStats",
    "SRC",
    "StatisticsCatalog",
    "TRG",
    "TruePredicate",
    "Tup",
    "ValueDictionary",
    "columnar_enabled",
    "conjunction",
    "row_mode",
    "snapshot_dictionary",
    "read_graph_tsv",
    "read_relation_tsv",
    "write_graph_tsv",
    "write_relation_tsv",
]
