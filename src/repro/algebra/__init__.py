"""The mu-RA recursive relational algebra: terms, analyses, evaluation."""

from .builders import (LEFT_TO_RIGHT, RIGHT_TO_LEFT, closure,
                       closure_from_seed, compose, concatenate_all,
                       filter_source, fresh_column, fresh_fixpoint_variable,
                       label_edges_from_facts, swap_src_trg, union_all)
from .conditions import (Decomposition, check_fcond, decompose, flatten_union,
                         is_linear, is_non_mutually_recursive, is_positive,
                         satisfies_fcond, union_of)
from .evaluate import (DEFAULT_MAX_ITERATIONS, EvaluationStats, Evaluator,
                       evaluate, naive_fixpoint)
from .fixpoint import FixpointBind, FixpointRun, run_fixpoint, semi_naive
from .kernels import (KernelProgram, KernelProgramCache, compile_program,
                      default_kernel_cache)
from .printer import term_to_indented_string, term_to_string
from .schema import Schema, infer_schema, schemas_of_database
from .stability import stable_columns
from .terms import (NODE_TYPES, AntiProject, Antijoin, Filter, Fixpoint, Join,
                    Literal, Rename, RelVar, Term, Union)
from .variables import free_variables, is_constant_in
from .visitors import subterms_of_type, transform_top_down, walk

__all__ = [
    "AntiProject",
    "Antijoin",
    "DEFAULT_MAX_ITERATIONS",
    "Decomposition",
    "EvaluationStats",
    "Evaluator",
    "Filter",
    "Fixpoint",
    "FixpointBind",
    "FixpointRun",
    "Join",
    "KernelProgram",
    "KernelProgramCache",
    "LEFT_TO_RIGHT",
    "Literal",
    "NODE_TYPES",
    "RIGHT_TO_LEFT",
    "RelVar",
    "Rename",
    "Schema",
    "Term",
    "Union",
    "check_fcond",
    "closure",
    "closure_from_seed",
    "compile_program",
    "compose",
    "concatenate_all",
    "decompose",
    "default_kernel_cache",
    "evaluate",
    "filter_source",
    "flatten_union",
    "free_variables",
    "fresh_column",
    "fresh_fixpoint_variable",
    "infer_schema",
    "is_constant_in",
    "is_linear",
    "is_non_mutually_recursive",
    "is_positive",
    "label_edges_from_facts",
    "naive_fixpoint",
    "run_fixpoint",
    "satisfies_fcond",
    "semi_naive",
    "schemas_of_database",
    "stable_columns",
    "subterms_of_type",
    "swap_src_trg",
    "term_to_indented_string",
    "term_to_string",
    "transform_top_down",
    "union_all",
    "union_of",
    "walk",
]
