"""Dataset generators: Yago-like, Uniprot-like, random graphs, social suite."""

from .random_graphs import chain_graph, erdos_renyi_graph, random_tree
from .registry import available_datasets, load_dataset, register_dataset
from .social import (preferential_attachment_graph, relabel_for_anbn,
                     social_graph_suite)
from .uniprot import uniprot_constants, uniprot_graph
from .yago import yago_like_graph

__all__ = [
    "available_datasets",
    "chain_graph",
    "erdos_renyi_graph",
    "load_dataset",
    "preferential_attachment_graph",
    "random_tree",
    "register_dataset",
    "relabel_for_anbn",
    "social_graph_suite",
    "uniprot_constants",
    "uniprot_graph",
    "yago_like_graph",
]
