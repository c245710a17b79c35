"""Clique-minor-free graphs that are not q-choosable, with verification.

The package builds a three-case family of graphs, parameterized by a
scale t: each instance has no K_p minor yet admits a list assignment
with all lists of size q that permits no proper coloring.  Everything
the construction claims is re-checked computationally and emitted as a
JSON certificate.

Importing the package loads none of its modules.  Each public name in
`__all__` is looked up in `_SUBMODULE` and imported from its module on
first access (PEP 562), so a process that only prints the lower-bound
table never loads the graph, search or coloring code.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "ConstructionRefuted",
        "InvalidArgumentError",
        "ParseError",
        "PreconditionError",
        "ResourceLimitError",
        "SearchTimeout",
        "UnchoosableError",
    ),
    "graphs": (
        "DegeneracyResult",
        "Graph",
        "degeneracy",
        "paste",
    ),
    "graphio": (
        "read_adjacency_json",
        "read_graph",
        "read_graph6",
        "write_adjacency_json",
        "write_graph",
        "write_graph6",
    ),
    "minors": (
        "BranchSetWitness",
        "MinorAnswer",
        "check_witness",
        "counting_bound",
        "has_clique_minor",
    ),
    "listcolor": ("ListAssignment", "SolveResult", "l_colorable"),
    "construction": (
        "ConstructionParams",
        "ConstructionStats",
        "GadgetTemplate",
        "build",
        "build_stats",
        "color_pattern_classes",
        "gadget_blocked_detail",
        "gadget_template",
        "lower_bound_table",
        "params_for",
        "verify_construction",
        "verify_minor_free",
        "verify_not_colorable",
    ),
    "certificates": ("CheckResult", "check_certificate"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return __all__
