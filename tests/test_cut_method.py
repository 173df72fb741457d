import random

import numpy as np
import pytest
from hypothesis import given

from topocut.cut_method import (
    CutEngine,
    degree_distance_via_cuts,
    wiener_double_via_cuts,
    wiener_weighted_via_cuts,
)
from topocut.graph import (
    all_pairs_distances,
    build_graph,
    degree_vector,
    distance_matrix,
)
from topocut.indices import (
    DoubleWeightedGraph,
    degree_distance,
    wiener,
    wiener_double,
    wiener_plus,
    wiener_weighted,
)
from topocut.theta import (
    EdgePartition,
    PartitionError,
    quotient,
    theta_star_classes,
    validate_coarser,
)
from topocut.families import cycle_graph, hypercube_graph, path_graph, phe6_placement
from topocut.phenylene import build_phenylene

from strategies import connected_graphs, double_weighted_graphs, trees


def finest(g):
    classes = theta_star_classes(g)
    return validate_coarser(g, classes.classes, classes)


def coarsest(g):
    return validate_coarser(g, [range(g.m)])


def merged(g, seed):
    """A random coarser partition: theta*-classes merged into fewer blocks."""
    classes = theta_star_classes(g).classes
    rng = random.Random(seed)
    k = rng.randint(1, len(classes))
    blocks = [[] for _ in range(k)]
    for cls in classes:
        blocks[rng.randrange(k)].extend(cls)
    return validate_coarser(g, [b for b in blocks if b])


def distances_via_quotients(g, partition):
    """All-pairs distances as the sums of every block quotient's distances."""
    total = np.zeros((g.n, g.n), dtype=np.int64)
    for block in partition.blocks:
        q = quotient(g, block)
        labels = np.array(q.component_of)
        total += distance_matrix(q.graph)[np.ix_(labels, labels)]
    return total


def test_distance_via_quotients_examples():
    c6 = cycle_graph(6)
    d = distances_via_quotients(c6, finest(c6))
    assert d[2, 2] == 0
    assert d[0, 3] == 3  # one hop per quotient K2


@given(trees(min_n=2, max_n=10))
def test_distance_via_quotients_on_trees(g):
    # the whole matrix at once: every vertex pair is compared
    d = distances_via_quotients(g, finest(g))
    assert d.tolist() == [list(row) for row in all_pairs_distances(g)]


@given(connected_graphs(min_n=2, max_n=10))
def test_distance_decomposition_exhaustive(g):
    want = [list(row) for row in all_pairs_distances(g)]
    for part in (finest(g), coarsest(g), merged(g, 5)):
        assert distances_via_quotients(g, part).tolist() == want


def test_wiener_weighted_via_cuts_c6():
    c6 = cycle_graph(6)
    assert wiener_weighted_via_cuts(c6, (1,) * 6, finest(c6)) == 27


def test_wiener_weighted_via_cuts_k2():
    k2 = build_graph(2, [(0, 1)])
    assert wiener_weighted_via_cuts(k2, (5, 7), finest(k2)) == 35


def test_single_block_partition_equals_oracle():
    c6 = cycle_graph(6)
    assert wiener_weighted_via_cuts(c6, (1,) * 6, coarsest(c6)) == 27


@given(trees(min_n=2, max_n=14))
def test_tree_cuts_match_edge_split_oracle(g):
    # independent oracle: classic sum of n1(e) n2(e) over edges
    split_sum = 0
    for e in range(g.m):
        n1, n2 = (len(ms) for ms in quotient(g, [e]).members)
        split_sum += n1 * n2
    assert wiener_weighted_via_cuts(g, (1,) * g.n, finest(g)) == split_sum == wiener(g)


def test_wiener_double_via_cuts_c6():
    c6 = cycle_graph(6)
    dwg = DoubleWeightedGraph(c6, (1,) * 6, (1,) * 6)
    assert wiener_double_via_cuts(dwg, finest(c6)) == 54


@given(double_weighted_graphs(min_n=2, max_n=10))
def test_double_cuts_match_oracle_and_are_partition_invariant(gab):
    g, a, b = gab
    dwg = DoubleWeightedGraph(g, a, b)
    want = wiener_double(dwg)
    for part in (finest(g), coarsest(g), merged(g, 11), merged(g, 23)):
        assert wiener_double_via_cuts(dwg, part) == want


@given(double_weighted_graphs(min_n=2, max_n=10))
def test_b_one_reduces_to_wiener_plus(gab):
    g, a, _ = gab
    dwg = DoubleWeightedGraph(g, a, (1,) * g.n)
    assert wiener_double_via_cuts(dwg, finest(g)) == wiener_plus(g, a)


def test_degree_distance_via_cuts_examples():
    p3 = path_graph(3)
    assert degree_distance_via_cuts(p3, finest(p3)) == 10
    c6 = cycle_graph(6)
    assert degree_distance_via_cuts(c6, finest(c6)) == 108


def test_phe6_via_cuts():
    ph = build_phenylene(phe6_placement())
    g = ph.graph
    part = finest(g)
    dwg = DoubleWeightedGraph(g, degree_vector(g), (1,) * g.n)
    assert wiener_double_via_cuts(dwg, part) == 18384
    assert degree_distance_via_cuts(g, part) == 18384


@given(connected_graphs(min_n=2, max_n=10))
def test_degree_distance_via_cuts_matches_oracle(g):
    assert degree_distance_via_cuts(g, merged(g, 3)) == degree_distance(g)


def test_cut_equivalence_sixty_vertices():
    from topocut.families import random_connected_graph

    rng = random.Random(61)
    g = random_connected_graph(60, 100, seed=616)
    a = tuple(rng.randint(1, 9) for _ in range(60))
    b = tuple(rng.randint(1, 9) for _ in range(60))
    dwg = DoubleWeightedGraph(g, a, b)
    want = wiener_double(dwg)
    for part in (finest(g), coarsest(g), merged(g, 8)):
        assert wiener_double_via_cuts(dwg, part) == want
        assert degree_distance_via_cuts(g, part) == degree_distance(g)


def test_partial_cube_double_wiener_examples():
    # on a partial cube every theta*-class quotient is K2, and the engine
    # over theta* gives W(a, b) as the sum of its side products
    p3 = path_graph(3)
    assert CutEngine(p3).values([(degree_vector(p3), (1, 1, 1))]) == [10]
    q3 = hypercube_graph(3)
    ones = (1,) * 8
    assert CutEngine(q3).values([(ones, ones)]) == [2 * wiener(q3)]
    c6 = cycle_graph(6)
    engine = CutEngine(c6)
    assert engine.sizes == (2, 2, 2)
    assert engine.values([(degree_vector(c6), (1,) * 6)]) == [108]


def test_partition_mismatch_detected():
    c6 = cycle_graph(6)
    c4 = cycle_graph(4)
    part = finest(c4)
    with pytest.raises(PartitionError):
        wiener_weighted_via_cuts(c6, (1,) * 6, part)


@pytest.mark.parametrize("blocks, message", [
    # edge 2 in no block and edge 0 in two: the counts still add up to m
    (((0, 5, 8, 11), (1, 3, 9, 10), (0, 4, 6, 7)),
     r"blocks do not partition the edge set \(12 entries, 11 distinct, 12 edges\)"),
    (((0, 5, 8, 11), (1, 3, 9, 10), (12, 4, 6, 7)), "unknown edge index 12"),
    (((0, 5, 8, 11), (1, 3, 9, 10), (-1, 4, 6, 7)), "unknown edge index -1"),
])
def test_engine_rejects_a_malformed_partition(blocks, message):
    # an EdgePartition built directly skips validate_coarser; the engine's
    # own check must still catch a block list that is no partition
    q3 = hypercube_graph(3)
    with pytest.raises(PartitionError, match=f"^{message}$"):
        wiener_weighted_via_cuts(q3, (1,) * 8, EdgePartition(blocks))


def test_invalid_partition_cannot_sneak_past_validation():
    c6 = cycle_graph(6)
    with pytest.raises(PartitionError):
        validate_coarser(c6, [[0], [1, 2, 3, 4, 5]])
