"""Prepared, parameterized queries: plan once, bind many times.

A template is ordinary UCRPQ text in which ``:name`` identifiers mark
parameters (the leading colon is legal identifier syntax, so templates go
through the ordinary parser)::

    prepared = session.prepare("?y <- :start knows+ ?y")
    prepared.bind(start="alice").collect()
    prepared.bind(start="bob").collect()      # plan-cache hit

Parameters come in two kinds, detected from where the placeholder sits:

* **value parameters** — a placeholder in endpoint (constant) position.
  The template is translated with a :class:`Parameter` sentinel as the
  filter constant and planned once; every binding substitutes its value
  into the *selected* plan (sound because equality selectivity is
  value-independent — see :mod:`repro.session.parameters`).
* **label parameters** — a placeholder in path (edge label) position.
  The referenced relation (and therefore its statistics) only exists at
  bind time, so the template is planned once **per distinct label
  binding**; re-binding the same label is a plan-cache hit.

The plan cache keys on the parameterized canonical form (the template
term with labels bound and value sentinels in place), so bindings share
one entry while the result cache still distinguishes them.
"""

from __future__ import annotations

from ..errors import TranslationError
from ..query.ast import (Alternation, Atom, Concat, ConjunctiveQuery,
                         Constant, Endpoint, Label, PathExpr, Plus, UCRPQ,
                         Variable)
from ..query.classes import classify_query
from .parameters import PARAMETER_PREFIX, Parameter
from .query import Query


class PreparedQuery:
    """A parameterized query template bound to one session."""

    def __init__(self, session, query: "str | UCRPQ",
                 params: tuple[str, ...] | None = None):
        self.session = session
        self.template = session.parse(query)
        label_params, value_params = _scan_placeholders(self.template)
        found = label_params | value_params
        if params is not None:
            declared = set(params)
            missing = sorted(declared - found)
            if missing:
                raise TranslationError(
                    f"declared parameters {missing} do not appear in the "
                    f"template (write them as :name)")
            undeclared = sorted(found - declared)
            if undeclared:
                raise TranslationError(
                    f"template placeholders {undeclared} are not in the "
                    f"declared params tuple")
        self.label_params = frozenset(label_params)
        self.value_params = frozenset(value_params)
        self.params = tuple(sorted(found))
        #: label-binding -> (translated template term with value
        #: sentinels in place, its query classes).  One entry per
        #: distinct label combination; purely a translation memo — the
        #: *plan* memo is the session's plan cache.  The classes read
        #: only the path shape and which endpoints are constants, which
        #: every value binding shares.
        self._templates: dict[tuple, tuple] = {}

    def bind(self, **values: object) -> Query:
        """Bind every parameter; returns a lazy :class:`Query` handle."""
        missing = sorted(set(self.params) - values.keys())
        if missing:
            raise TranslationError(f"unbound parameters {missing}")
        extra = sorted(values.keys() - set(self.params))
        if extra:
            raise TranslationError(
                f"unknown parameters {extra}; template declares "
                f"{list(self.params)}")
        label_values = {name: values[name] for name in self.label_params}
        for name, value in label_values.items():
            if not isinstance(value, str) or not value:
                raise TranslationError(
                    f"label parameter :{name} must bind to a non-empty "
                    f"edge-label string, got {value!r}")
        value_values = {name: values[name] for name in self.value_params}
        bound_ast = _substitute(self.template, label_values,
                                dict(values))
        label_key = tuple(sorted(label_values.items()))
        template = self._templates.get(label_key)
        if template is None:
            sentinels = {name: Parameter(name) for name in self.value_params}
            template_ast = _substitute(self.template, label_values, sentinels)
            template = (self.session.translate(template_ast),
                        classify_query(template_ast))
            self._templates[label_key] = template
        template_term, classes = template
        binding = ", ".join(f"{name}={values[name]!r}"
                            for name in self.params)
        return Query(self.session, ast=bound_ast, classes=classes,
                     plan_term=template_term,
                     bindings=value_values,
                     description=f"{self.template} [{binding}]")

    def __repr__(self) -> str:
        return (f"PreparedQuery({str(self.template)!r}, "
                f"params={list(self.params)})")


# -- Template scanning and substitution ----------------------------------------


def _placeholder_name(identifier: str) -> str | None:
    """``:name`` -> ``name``; anything else (incl. ``rdfs:x``) -> None."""
    if identifier.startswith(PARAMETER_PREFIX) and len(identifier) > 1:
        return identifier[1:]
    return None


def _scan_placeholders(query: UCRPQ) -> tuple[set[str], set[str]]:
    labels: set[str] = set()
    values: set[str] = set()
    for rule in query.rules:
        for atom in rule.atoms:
            _scan_path(atom.path, labels)
            for endpoint in (atom.subject, atom.obj):
                if isinstance(endpoint, Constant) and isinstance(
                        endpoint.value, str):
                    name = _placeholder_name(endpoint.value)
                    if name is not None:
                        values.add(name)
    overlap = labels & values
    if overlap:
        raise TranslationError(
            f"parameters {sorted(overlap)} are used both as edge labels "
            f"and as node constants; use distinct names")
    return labels, values


def _scan_path(path: PathExpr, labels: set[str]) -> None:
    if isinstance(path, Label):
        name = _placeholder_name(path.name)
        if name is not None:
            labels.add(name)
    elif isinstance(path, Concat):
        for part in path.parts:
            _scan_path(part, labels)
    elif isinstance(path, Alternation):
        for option in path.options:
            _scan_path(option, labels)
    elif isinstance(path, Plus):
        _scan_path(path.inner, labels)


def _substitute(query: UCRPQ, label_values: dict[str, str],
                value_values: dict[str, object]) -> UCRPQ:
    rules = []
    for rule in query.rules:
        atoms = tuple(
            Atom(_substitute_endpoint(atom.subject, value_values),
                 _substitute_path(atom.path, label_values),
                 _substitute_endpoint(atom.obj, value_values))
            for atom in rule.atoms)
        rules.append(ConjunctiveQuery(rule.head, atoms))
    return UCRPQ(tuple(rules))


def _substitute_path(path: PathExpr, label_values: dict[str, str]) -> PathExpr:
    if isinstance(path, Label):
        name = _placeholder_name(path.name)
        if name is not None and name in label_values:
            return Label(label_values[name], inverse=path.inverse)
        return path
    if isinstance(path, Concat):
        return Concat(tuple(_substitute_path(part, label_values)
                            for part in path.parts))
    if isinstance(path, Alternation):
        return Alternation(tuple(_substitute_path(option, label_values)
                                 for option in path.options))
    if isinstance(path, Plus):
        return Plus(_substitute_path(path.inner, label_values))
    return path


def _substitute_endpoint(endpoint: Endpoint,
                         value_values: dict[str, object]) -> Endpoint:
    if isinstance(endpoint, Variable):
        return endpoint
    if isinstance(endpoint.value, str):
        name = _placeholder_name(endpoint.value)
        if name is not None and name in value_values:
            return Constant(value_values[name])
    return endpoint
