"""topocut: distance- and degree-based graph invariants via the cut method.

Exact computation of the Wiener index, degree distance, Gutman index, and
their vertex-weighted generalisations for arbitrary connected graphs, with
structure-exploiting fast paths (quotient trees for phenylenes, closed sums
for partial Hamming graphs, neighbourhood reductions) all cross-validated
against brute-force definitions.

The package loads lazily (PEP 562): ``import topocut`` imports no submodule,
and each public name or submodule imports its home module on first access.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_HOMES = {
    "graph": "Graph GraphError ParseError PlacementError all_pairs_distances build_graph "
             "degree_vector format_edge_list parse_edge_list",
    "theta": "EdgePartition PartitionError QuotientGraph ThetaClasses quotient "
             "theta_star_classes validate_coarser",
    "indices": "DoubleWeightedGraph WeightedGraph degree_distance gutman wiener wiener_double "
               "wiener_plus wiener_weighted",
    "cut_method": "degree_distance_via_cuts is_partial_cube wiener_double_via_cuts "
                  "wiener_weighted_via_cuts",
    "exact": "NotATreeError",
    "phenylene": "BenzenoidPlacement Phenylene QuotientTree build_benzenoid "
                 "build_phenylene dd_gut_via_squeeze dd_gut_via_trees quotient_trees "
                 "tree_wiener_double_linear tree_wiener_linear",
    "reduction": "ReductionStep r_classes reduce_fully reduce_fully_single reduce_once_r "
                 "reduce_once_s s_classes",
    "hamming": "NotPartialHammingError gutman_exact_hamming gutman_lower_bound "
               "is_partial_hamming weighted_wiener_lower_bound",
    "families": "",  # a submodule only
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = [*_HOME, *_HOMES]


def __getattr__(name: str):
    """A submodule, or a public name read from its home module, imported on first use."""
    if name in _HOMES:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
