"""Loading and saving relations and graphs as tab-separated files.

The original system loads graphs from pre-processed triple dumps (e.g. the
cleaned Yago facts table).  This module provides the equivalent plumbing for
the reproduction: a minimal, dependency-free TSV reader/writer so datasets
generated once can be cached on disk and reloaded by benchmarks.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from ..errors import DatasetError
from .graph import LabeledGraph
from .relation import Relation
from .storage import RelationBuilder


def write_relation_tsv(relation: Relation, path: str | Path) -> None:
    """Write a relation to a TSV file with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t")
        writer.writerow(relation.columns)
        for row in relation.sorted_rows():
            writer.writerow(row)


def read_relation_tsv(path: str | Path, types: dict[str, type] | None = None) -> Relation:
    """Read a relation from a TSV file written by :func:`write_relation_tsv`.

    ``types`` optionally maps column names to constructors (e.g. ``int``)
    applied to the raw string cells.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such relation file: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration as exc:
            raise DatasetError(f"relation file {path} is empty") from exc
        columns = tuple(header)
        converters = [types.get(c, str) if types else str for c in columns]
        # Ingestion goes through the validating builder: rows are checked
        # (and realigned to the sorted schema, whatever the header order)
        # here, once, and the relation is materialized through the trusted
        # path.
        builder = RelationBuilder(columns)
        for cells in reader:
            if len(cells) != len(columns):
                raise DatasetError(
                    f"row {cells!r} in {path} does not match header {columns}"
                )
            builder.add_mapping({
                column: conv(cell)
                for column, conv, cell in zip(columns, converters, cells)})
    return builder.build()


def write_graph_tsv(graph: LabeledGraph, path: str | Path) -> None:
    """Write a labelled graph as a (src, pred, trg) triples TSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t")
        writer.writerow(("src", "pred", "trg"))
        for src, label, trg in graph.iter_triples():
            writer.writerow((src, label, trg))


def read_graph_tsv(path: str | Path, node_type: type = str,
                   name: str | None = None) -> LabeledGraph:
    """Read a labelled graph from a triples TSV file."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such graph file: {path}")
    graph = LabeledGraph(name=name or path.stem)
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        header = next(reader, None)
        if header != ["src", "pred", "trg"]:
            raise DatasetError(
                f"graph file {path} must start with a 'src\\tpred\\ttrg' header"
            )
        for cells in reader:
            if len(cells) != 3:
                raise DatasetError(f"malformed triple {cells!r} in {path}")
            src, pred, trg = cells
            graph.add_edge(_convert(src, node_type), pred, _convert(trg, node_type))
    return graph


def _convert(value: str, node_type: type) -> Any:
    try:
        return node_type(value)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"cannot convert node id {value!r} to {node_type}") from exc
