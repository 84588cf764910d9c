"""BigDatalog baseline: Datalog AST, semi-naive engine, magic sets, distribution."""

from .ast import Atom, Const, Program, Rule, Var
from .distributed import BigDatalogEngine, BigDatalogResult
from .engine import DatalogStats, SemiNaiveEngine
from .magic import MagicSetSpecializer, SpecializationReport
from .translate import (GOAL_PREDICATE, DatalogTranslator, graph_to_edb,
                        ucrpq_to_datalog)

__all__ = [
    "Atom",
    "BigDatalogEngine",
    "BigDatalogResult",
    "Const",
    "DatalogStats",
    "DatalogTranslator",
    "GOAL_PREDICATE",
    "MagicSetSpecializer",
    "Program",
    "Rule",
    "SemiNaiveEngine",
    "SpecializationReport",
    "Var",
    "graph_to_edb",
    "ucrpq_to_datalog",
]
