"""Synthetic protein graphs modelled after the gMark Uniprot benchmark.

The paper's scalability experiments use ``uniprot_n`` graphs generated with
the gMark tool from the Uniprot schema.  This module generates graphs with
the same schema (the predicates the Q26-Q50 workload navigates) and
comparable degree shapes:

* ``interacts`` (abbreviated ``int``): protein - protein, scale-free-ish,
* ``encodes`` (``enc``): gene - protein,
* ``occurs`` (``occ``): protein - tissue,
* ``hasKeyword`` (``hKw``): protein - keyword (keywords are hubs),
* ``reference`` (``ref``): protein - publication,
* ``authoredBy`` (``auth``): publication - author,
* ``publishes`` (``pub``): journal - publication.

``uniprot_graph(num_edges=...)`` targets an approximate edge count, which
is how the paper names its instances (uniprot_1M, uniprot_5M, ...); the
reproduction uses much smaller instances.
"""

from __future__ import annotations

import random

from ..data.graph import LabeledGraph
from ..errors import DatasetError

#: The abbreviations used in the paper's query figure, mapped to predicates.
ABBREVIATIONS = {
    "int": "int",
    "enc": "enc",
    "occ": "occ",
    "hKw": "hKw",
    "ref": "ref",
    "auth": "auth",
    "pub": "pub",
}

#: Relative share of each predicate in the generated edge budget, roughly
#: following the gMark Uniprot schema proportions.
_EDGE_SHARES = {
    "int": 0.30,
    "enc": 0.10,
    "occ": 0.15,
    "hKw": 0.15,
    "ref": 0.15,
    "auth": 0.10,
    "pub": 0.05,
}


def uniprot_graph(num_edges: int = 10_000, seed: int = 0,
                  name: str | None = None) -> LabeledGraph:
    """Generate a Uniprot-shaped labelled graph with about ``num_edges`` edges."""
    if num_edges < 100:
        raise DatasetError("num_edges must be at least 100")
    rng = random.Random(seed)
    graph = LabeledGraph(name=name or f"uniprot_{num_edges}")

    num_proteins = max(20, num_edges // 8)
    num_genes = max(10, num_proteins // 3)
    num_tissues = max(5, num_proteins // 20)
    num_keywords = max(5, num_proteins // 25)
    num_publications = max(10, num_proteins // 4)
    num_authors = max(5, num_publications // 3)
    num_journals = max(3, num_publications // 20)

    proteins = [f"protein_{i}" for i in range(num_proteins)]
    genes = [f"gene_{i}" for i in range(num_genes)]
    tissues = [f"tissue_{i}" for i in range(num_tissues)]
    keywords = [f"keyword_{i}" for i in range(num_keywords)]
    publications = [f"pub_{i}" for i in range(num_publications)]
    authors = [f"author_{i}" for i in range(num_authors)]
    journals = [f"journal_{i}" for i in range(num_journals)]

    def preferential(pool: list[str]) -> str:
        """Skewed choice: low indices are hubs (a cheap power-law stand-in)."""
        exponent = rng.random() ** 2.5
        return pool[int(exponent * (len(pool) - 1))]

    budget = {label: int(share * num_edges) for label, share in _EDGE_SHARES.items()}
    for _ in range(budget["int"]):
        graph.add_edge(rng.choice(proteins), "int", preferential(proteins))
    for _ in range(budget["enc"]):
        graph.add_edge(rng.choice(genes), "enc", rng.choice(proteins))
    for _ in range(budget["occ"]):
        graph.add_edge(rng.choice(proteins), "occ", preferential(tissues))
    for _ in range(budget["hKw"]):
        graph.add_edge(rng.choice(proteins), "hKw", preferential(keywords))
    for _ in range(budget["ref"]):
        graph.add_edge(rng.choice(proteins), "ref", rng.choice(publications))
    for _ in range(budget["auth"]):
        graph.add_edge(rng.choice(publications), "auth", preferential(authors))
    for _ in range(budget["pub"]):
        graph.add_edge(rng.choice(journals), "pub", rng.choice(publications))
    return graph


def uniprot_constants(graph: LabeledGraph) -> dict[str, str]:
    """Return representative constants for the filtered Uniprot queries.

    The paper's queries use opaque constants (``C``); the workload
    definitions substitute them with entities that actually occur in the
    generated graph, chosen deterministically: the most connected protein,
    tissue, keyword, publication and author.
    """
    def busiest_source(label: str, fallback: str) -> str:
        edges = graph.edges(label)
        if not edges:
            return fallback
        counts: dict[str, int] = {}
        for row in edges.to_dicts():
            counts[row["src"]] = counts.get(row["src"], 0) + 1
        return max(sorted(counts), key=lambda node: counts[node])

    def busiest_target(label: str, fallback: str) -> str:
        edges = graph.edges(label)
        if not edges:
            return fallback
        counts: dict[str, int] = {}
        for row in edges.to_dicts():
            counts[row["trg"]] = counts.get(row["trg"], 0) + 1
        return max(sorted(counts), key=lambda node: counts[node])

    return {
        "protein": busiest_source("int", "protein_0"),
        "tissue": busiest_target("occ", "tissue_0"),
        "keyword": busiest_target("hKw", "keyword_0"),
        "publication": busiest_target("ref", "pub_0"),
        "author": busiest_target("auth", "author_0"),
        "journal": busiest_source("pub", "journal_0"),
    }
