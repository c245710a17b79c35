"""Clique-minor-free graphs that are not q-choosable, with verification.

The package builds a three-case family of graphs, parameterized by a
scale t: each instance has no K_p minor yet admits a list assignment
with all lists of size q that permits no proper coloring.  Everything
the construction claims is re-checked computationally and emitted as a
JSON certificate.
"""

from .errors import (
    ConstructionRefuted,
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    SearchTimeout,
    UnchoosableError,
)
from .graphs import (
    DegeneracyResult,
    Graph,
    complete_multipartite,
    degeneracy,
    paste,
)
from .graphio import (
    read_adjacency_json,
    read_graph,
    read_graph6,
    write_adjacency_json,
    write_graph,
    write_graph6,
)
from .minors import (
    BranchSetWitness,
    MinorAnswer,
    check_witness,
    counting_bound,
    hadwiger_number,
    has_clique_minor,
)
from .listcolor import (
    ListAssignment,
    SolveResult,
    check_coloring,
    l_colorable,
)
from .construction import (
    ConstructionParams,
    ConstructionStats,
    GadgetTemplate,
    build,
    build_stats,
    color_pattern_classes,
    gadget_blocked_detail,
    gadget_lists,
    gadget_template,
    lower_bound_table,
    params_for,
    verify_construction,
    verify_degeneracy,
    verify_minor_free,
    verify_not_colorable,
)
from .certificates import CheckResult, check_certificate

__all__ = [
    "BranchSetWitness",
    "CheckResult",
    "ConstructionParams",
    "ConstructionRefuted",
    "ConstructionStats",
    "DegeneracyResult",
    "GadgetTemplate",
    "Graph",
    "InvalidArgumentError",
    "ListAssignment",
    "MinorAnswer",
    "ParseError",
    "PreconditionError",
    "ResourceLimitError",
    "SearchTimeout",
    "SolveResult",
    "UnchoosableError",
    "build",
    "build_stats",
    "check_certificate",
    "check_coloring",
    "check_witness",
    "color_pattern_classes",
    "complete_multipartite",
    "counting_bound",
    "degeneracy",
    "gadget_blocked_detail",
    "gadget_lists",
    "gadget_template",
    "hadwiger_number",
    "has_clique_minor",
    "l_colorable",
    "lower_bound_table",
    "params_for",
    "paste",
    "read_adjacency_json",
    "read_graph",
    "read_graph6",
    "verify_construction",
    "verify_degeneracy",
    "verify_minor_free",
    "verify_not_colorable",
    "write_adjacency_json",
    "write_graph",
    "write_graph6",
]

__version__ = "0.1.0"
