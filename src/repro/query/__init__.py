"""UCRPQ query frontend: AST, parser, translation to mu-RA, classification."""

from .ast import (Alternation, Atom, Concat, ConjunctiveQuery, Constant,
                  Endpoint, Label, PathExpr, Plus, UCRPQ, Variable)
from .classes import CLASS_NAMES, classify_query
from .parser import parse_path, parse_query
from .translate import (output_columns, translate_atom, translate_path,
                        translate_query, translate_rule)

__all__ = [
    "Alternation",
    "Atom",
    "CLASS_NAMES",
    "Concat",
    "ConjunctiveQuery",
    "Constant",
    "Endpoint",
    "Label",
    "PathExpr",
    "Plus",
    "UCRPQ",
    "Variable",
    "classify_query",
    "output_columns",
    "parse_path",
    "parse_query",
    "translate_atom",
    "translate_path",
    "translate_query",
    "translate_rule",
]
