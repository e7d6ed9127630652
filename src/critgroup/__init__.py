"""Exact-arithmetic critical groups of graphs and signed graphs.

Computes Laplacian cokernels over the integers, element orders, the
monodromy pairing, orthogonal edge sets and the subgroup bounds they
force, plus a feasibility scan over strongly regular parameter tuples.
Everything is exact; no floating point anywhere.

Public names resolve on first access (PEP 562), so importing the package,
or one module of it, loads only the modules that are used. Modules reach
each other's deferred modules through `_lazy_module`.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "errors": (
        "DisconnectedGraphError", "GraphError", "GraphFormatError", "InternalCheckError",
        "StructureError",
    ),
    "families": (
        "clebsch_complement", "complete", "complete_multipartite", "cycle", "paley", "petersen",
        "signed_complete_unbalanced", "star",
    ),
    "graphs": (
        "GENERATOR_FAMILIES", "BalanceResult", "Graph", "SignedGraph", "TwoEigenvalueParams",
        "detect_two_eigenvalue", "edge_key", "format_graph", "generate", "is_balanced",
        "make_graph", "make_signed_graph", "parse_graph", "read_graph_file",
    ),
    "groups": (
        "AbelianGroup", "ExponentReport", "SpectralBoundReport", "critical_group",
        "spanning_tree_count", "subgroup_invariant_factors", "verify_exponent_theorem",
        "verify_spectral_bound",
    ),
    "linalg": ("determinant", "laplacian", "smith_diagonal", "solve", "unit_pivot_core"),
    "monodromy": (
        "PairingValue", "edge_difference", "element_order", "grounded_inverse",
        "self_pairing_denominator",
    ),
    "pairing": (
        "OrthogonalSet", "TailHeavyReport", "check_subgroup_divisibility", "monodromy_pairing",
        "orthogonal_subset", "subgroup_bound", "verify_tail_heavy",
    ),
    "scan": (
        "KNOWN_TIGHT_TUPLES", "SCAN_NOTE", "FeasibleTuple", "enumerate_feasible",
        "scan_tight_denominators",
    ),
    "spectrum": ("char_poly", "gershgorin_bound", "laplacian_spectrum", "squarefree_part"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def _lazy_module(name: str):
    """The package module `name`, compiled only on its first attribute
    access. It goes into sys.modules and onto the package now, as an import
    would put it, so `import critgroup.x` and `critgroup.x.y` find it; a
    module already imported, or being imported, is returned as it is, so
    that its classes exist once."""
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_lazy_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
