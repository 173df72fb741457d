"""topocut: distance- and degree-based graph invariants via the cut method.

Exact computation of the Wiener index, degree distance, Gutman index, and
their vertex-weighted generalisations for arbitrary connected graphs, with
structure-exploiting fast paths (quotient trees for phenylenes, closed sums
for partial Hamming graphs, neighbourhood reductions) all cross-validated
against brute-force definitions.
"""

from .graph import (
    Graph,
    GraphError,
    ParseError,
    all_pairs_distances,
    build_graph,
    degree_vector,
    format_edge_list,
    parse_edge_list,
)
from .theta import (
    EdgePartition,
    NotPartialCubeError,
    PartitionError,
    QuotientGraph,
    ThetaClasses,
    quotient,
    theta_star_classes,
    validate_coarser,
)
from .indices import (
    DoubleWeightedGraph,
    WeightedGraph,
    degree_distance,
    gutman,
    wiener,
    wiener_double,
    wiener_plus,
    wiener_weighted,
)
from .cut_method import (
    degree_distance_via_cuts,
    is_partial_cube,
    partial_cube_double_wiener,
    wiener_double_via_cuts,
    wiener_weighted_via_cuts,
)
from .phenylene import (
    Benzenoid,
    BenzenoidPlacement,
    NotATreeError,
    Phenylene,
    PlacementError,
    QuotientTree,
    build_benzenoid,
    build_phenylene,
    dd_gut_via_squeeze,
    dd_gut_via_trees,
    quotient_trees,
    squeeze_weights,
    tree_wiener_double_linear,
    tree_wiener_linear,
)
from .reduction import (
    ReductionStep,
    r_classes,
    reduce_fully,
    reduce_fully_single,
    reduce_once_r,
    reduce_once_r_single,
    reduce_once_s,
    reduce_once_s_single,
    s_classes,
)
from .hamming import (
    NotPartialHammingError,
    gutman_exact_hamming,
    gutman_lower_bound,
    is_partial_hamming,
    weighted_wiener_lower_bound,
)
from . import families

__version__ = "0.1.0"
