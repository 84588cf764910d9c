"""Classification of queries into the paper's classes C1-C7.

Section V-D classifies queries by the optimisation techniques they require:

* **C1** — a single transitive closure, e.g. ``?x,?y <- ?x a+ ?y``,
* **C2** — a filter to the *right* of a closure, e.g. ``?x <- ?x a+ C``,
* **C3** — a filter to the *left* of a closure, e.g. ``?x <- C a+ ?x``,
* **C4** — a non-recursive step concatenated to the *right* of a closure,
  e.g. ``?x,?y <- ?x a+/b ?y``,
* **C5** — a non-recursive step concatenated to the *left* of a closure,
  e.g. ``?x,?y <- ?x b/a+ ?y``,
* **C6** — a concatenation of closures, e.g. ``?x,?y <- ?x a+/b+ ?y``,
* **C7** — non-regular recursion (anbn, same-generation): such queries are
  expressed directly in mu-RA, not as UCRPQs, so they are tagged explicitly
  by the workload definitions rather than detected here.

A query may belong to several classes; the classification is used for
reporting benchmark results by class, exactly as the paper does.
"""

from __future__ import annotations

from .ast import Alternation, Atom, Concat, Constant, PathExpr, Plus, UCRPQ

CLASS_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


def classify_query(query: UCRPQ) -> frozenset[str]:
    """Return the set of classes (C1-C6) a parsed UCRPQ belongs to."""
    classes: set[str] = set()
    for rule in query.rules:
        for atom in rule.atoms:
            classes |= _classify_atom(atom)
    return frozenset(classes)


def _classify_atom(atom: Atom) -> set[str]:
    classes: set[str] = set()
    path = atom.path
    if not path.contains_closure():
        return classes
    segments = _top_level_segments(path)
    closure_flags = [segment.contains_closure() for segment in segments]
    closure_count = sum(
        1 for segment in segments if isinstance(_strip(segment), Plus))
    plain_count = sum(1 for flag in closure_flags if not flag)

    if len(segments) == 1 and closure_flags[0]:
        # A bare closure; whether it is "single TC" (C1) or filtered
        # (C2/C3) depends on the endpoints.
        if isinstance(atom.subject, Constant):
            classes.add("C3")
        if isinstance(atom.obj, Constant):
            classes.add("C2")
        if not classes:
            classes.add("C1")
        return classes

    # Concatenation of several segments.
    if closure_count >= 2 or _has_adjacent_closures(segments):
        classes.add("C6")
    if plain_count:
        first_closure = closure_flags.index(True)
        last_closure = len(closure_flags) - 1 - closure_flags[::-1].index(True)
        if any(not flag for flag in closure_flags[:first_closure]):
            classes.add("C5")
        if any(not flag for flag in closure_flags[last_closure + 1:]):
            classes.add("C4")
    if isinstance(atom.subject, Constant):
        classes.add("C3")
    if isinstance(atom.obj, Constant):
        classes.add("C2")
    if not classes:
        classes.add("C1")
    return classes


# -- Internal helpers ----------------------------------------------------------


def _top_level_segments(path: PathExpr) -> list[PathExpr]:
    """Split a path on its top-level concatenation."""
    if isinstance(path, Concat):
        return list(path.parts)
    if isinstance(path, Alternation):
        # For classification purposes, an alternation counts as the union of
        # its options; use the option with the most structure.
        best: list[PathExpr] = []
        for option in path.options:
            segments = _top_level_segments(option)
            if len(segments) > len(best):
                best = segments
        return best
    return [path]


def _strip(segment: PathExpr) -> PathExpr:
    """Unwrap trivial one-element wrappers to find a closure node."""
    return segment


def _has_adjacent_closures(segments: list[PathExpr]) -> bool:
    flags = [segment.contains_closure() for segment in segments]
    return any(a and b for a, b in zip(flags, flags[1:]))
