"""Exact-arithmetic critical groups of graphs and signed graphs.

Computes Laplacian cokernels over the integers, element orders, the
monodromy pairing, orthogonal edge sets and the subgroup bounds they
force, plus a feasibility scan over strongly regular parameter tuples.
Everything is exact; no floating point anywhere.

Public names resolve on first access (PEP 562), so importing the package,
or one module of it, loads only the modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "errors": (
        "DisconnectedGraphError", "GraphError", "GraphFormatError", "InternalCheckError",
        "StructureError",
    ),
    "graphs": (
        "GENERATOR_FAMILIES", "BalanceResult", "Graph", "SignedGraph", "TwoEigenvalueParams",
        "clebsch_complement", "complete", "complete_multipartite", "cycle",
        "detect_two_eigenvalue", "edge_key", "format_graph", "generate", "is_balanced",
        "make_graph", "make_signed_graph", "paley", "parse_graph", "petersen",
        "read_graph_file", "signed_complete_unbalanced", "star",
    ),
    "groups": (
        "AbelianGroup", "ExponentReport", "SpectralBoundReport", "critical_group",
        "edge_difference", "element_order", "grounded_inverse", "spanning_tree_count",
        "subgroup_invariant_factors", "verify_exponent_theorem", "verify_spectral_bound",
    ),
    "linalg": (
        "Polynomial", "char_poly", "determinant", "gershgorin_bound", "laplacian",
        "laplacian_spectrum", "smith_diagonal", "solve", "squarefree_part", "unit_pivot_core",
    ),
    "pairing": (
        "OrthogonalSet", "PairingValue", "TailHeavyReport", "check_subgroup_divisibility",
        "monodromy_pairing", "orthogonal_subset", "self_pairing_denominator",
        "subgroup_bound", "verify_tail_heavy",
    ),
    "scan": (
        "KNOWN_TIGHT_TUPLES", "SCAN_NOTE", "FeasibleTuple", "enumerate_feasible",
        "scan_tight_denominators",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
