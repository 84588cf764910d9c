"""Generic traversal helpers over mu-RA terms.

The rewriter, the analyses and the printers all need the same handful of
traversals; this module implements them once:

* :func:`walk` — pre-order iteration over every sub-term,
* :func:`transform_top_down` — apply a function to a node before visiting
  the (possibly new) children,
* :func:`rebuild` — a node over new children, or the node itself when
  every child is the same object (a structural compare would walk them),
* :func:`subterms_of_type` — a small convenience used by tests.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import is_

from .terms import Term


def walk(term: Term) -> Iterator[Term]:
    """Yield ``term`` and every sub-term, in pre-order."""
    yield term
    for child in term.children():
        yield from walk(child)


def rebuild(term: Term, children: tuple[Term, ...]) -> Term:
    """``term`` over ``children``; ``term`` itself when each is its own child."""
    if all(map(is_, children, term.children())):
        return term
    return term.with_children(children)


def transform_top_down(term: Term, fn: Callable[[Term], Term]) -> Term:
    """Apply ``fn`` to ``term`` first, then recurse into the result's children."""
    term = fn(term)
    return rebuild(term, tuple(transform_top_down(child, fn)
                               for child in term.children()))


def subterms_of_type(term: Term, node_type: type | tuple[type, ...]) -> list[Term]:
    """Return every sub-term (including ``term``) of the given node type(s)."""
    return [node for node in walk(term) if isinstance(node, node_type)]
