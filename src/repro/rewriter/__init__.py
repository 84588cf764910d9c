"""The MuRewriter: logical rewriting of mu-RA terms."""

from .classic import (MergeAntiProjects, MergeFilters, PushFilterThroughAntiProject,
                      PushFilterThroughAntijoin, PushFilterThroughJoin,
                      PushFilterThroughRename, PushFilterThroughUnion,
                      classic_rules)
from .engine import (DEFAULT_MAX_PLANS, DEFAULT_MAX_ROUNDS, MuRewriter,
                     default_rules, explore_plans)
from .fixpoint_rules import (MergeClosures, PushAntiProjectIntoFixpoint,
                             PushFilterIntoFixpoint, PushJoinIntoClosure,
                             ReverseClosure, fixpoint_rules)
from .normalize import canonicalize
from .patterns import ClosureShape, ComposeShape, match_closure, match_compose
from .rules import RewriteContext, RewriteRule

__all__ = [
    "ClosureShape",
    "ComposeShape",
    "DEFAULT_MAX_PLANS",
    "DEFAULT_MAX_ROUNDS",
    "MergeAntiProjects",
    "MergeClosures",
    "MergeFilters",
    "MuRewriter",
    "PushAntiProjectIntoFixpoint",
    "PushFilterIntoFixpoint",
    "PushFilterThroughAntiProject",
    "PushFilterThroughAntijoin",
    "PushFilterThroughJoin",
    "PushFilterThroughRename",
    "PushFilterThroughUnion",
    "PushJoinIntoClosure",
    "ReverseClosure",
    "RewriteContext",
    "RewriteRule",
    "canonicalize",
    "classic_rules",
    "default_rules",
    "explore_plans",
    "fixpoint_rules",
    "match_closure",
    "match_compose",
]
