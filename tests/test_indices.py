import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from topocut.cut_method import CutEngine, wiener_weighted_via_cuts
from topocut.graph import GraphError, build_graph, degree_vector
from topocut.hamming import weighted_wiener_lower_bound
from topocut.indices import (
    DoubleWeightedGraph,
    WeightedGraph,
    degree_distance,
    gutman,
    read_weights,
    wiener,
    wiener_double,
    wiener_plus,
    wiener_weighted,
)
from topocut.graph import ParseError
from topocut.phenylene import tree_wiener_double_linear, tree_wiener_linear
from topocut.theta import theta_star_classes, validate_coarser
from topocut.families import complete_graph, cycle_graph, path_graph, star_graph

from strategies import connected_graphs, double_weighted_graphs, weighted_graphs


def test_wiener_small():
    assert wiener(build_graph(2, [(0, 1)])) == 1
    assert wiener(path_graph(3)) == 4
    assert wiener(cycle_graph(5)) == 15  # 5 pairs at 1, 5 pairs at 2
    assert wiener(cycle_graph(6)) == 27


def test_wiener_weighted():
    k2 = build_graph(2, [(0, 1)])
    assert wiener_weighted(k2, (2, 3)) == 6
    p3 = path_graph(3)
    assert wiener_weighted(p3, degree_vector(p3)) == 6


@given(connected_graphs())
def test_unit_weights_reduce_to_wiener(g):
    ones = (1,) * g.n
    assert wiener_weighted(g, ones) == wiener(g)
    assert wiener_plus(g, ones) == 2 * wiener(g)


def test_wiener_plus():
    p3 = path_graph(3)
    assert wiener_plus(p3, degree_vector(p3)) == 10
    assert wiener_plus(build_graph(2, [(0, 1)]), (2, 3)) == 5


def test_wiener_double_examples():
    k13 = star_graph(4)
    ones = (1,) * 4
    assert wiener_double(DoubleWeightedGraph(k13, ones, ones)) == 18  # 2 W(K_1,3)


@given(weighted_graphs())
def test_b_equiv_one_gives_wiener_plus(gw):
    g, w = gw
    dwg = DoubleWeightedGraph(g, w, (1,) * g.n)
    assert wiener_double(dwg) == wiener_plus(g, w)


@given(weighted_graphs())
def test_a_equals_b_doubles_weighted(gw):
    g, w = gw
    assert wiener_double(DoubleWeightedGraph(g, w, w)) == 2 * wiener_weighted(g, w)


@given(double_weighted_graphs())
def test_double_symmetric_and_scaling(gab):
    g, a, b = gab
    value = wiener_double(DoubleWeightedGraph(g, a, b))
    assert wiener_double(DoubleWeightedGraph(g, b, a)) == value
    lam = Fraction(3, 2)
    scaled = tuple(lam * x for x in a)
    assert wiener_double(DoubleWeightedGraph(g, scaled, b)) == lam * value


def test_degree_distance_examples():
    assert degree_distance(path_graph(3)) == 10
    assert degree_distance(build_graph(2, [(0, 1)])) == 2
    for n in (4, 5, 6, 9):
        c = cycle_graph(n)
        assert degree_distance(c) == 4 * wiener(c)


def test_gutman_examples():
    assert gutman(path_graph(3)) == 6
    assert gutman(cycle_graph(4)) == 32  # 4 pairs 4*1 + 2 pairs 4*2
    assert gutman(complete_graph(4)) == 9 * 6  # all degrees 3, all distances 1


@given(connected_graphs())
def test_degree_identities(g):
    if g.n == 1:
        assert degree_distance(g) == 0 and gutman(g) == 0
        return
    degs = degree_vector(g)
    assert degree_distance(g) == wiener_plus(g, degs)
    assert gutman(g) == wiener_weighted(g, degs)


def test_weight_validation():
    p3 = path_graph(3)
    with pytest.raises(GraphError, match="length"):
        wiener_weighted(p3, (1, 2))
    with pytest.raises(GraphError, match="positive"):
        wiener_weighted(p3, (1, 0, 1))
    with pytest.raises(GraphError, match="positive"):
        DoubleWeightedGraph(p3, (1, 1, 1), (1, -2, 1))


@pytest.mark.parametrize("x", [1.5, np.float64(1.5)], ids=["float", "numpy_float"])
def test_every_weighted_entry_rejects_a_float_weight(x):
    # the exact routes would truncate 1.5 to 1: W*(C4) read 8 where the oracle's is 10.0
    c4, p4, ones = cycle_graph(4), path_graph(4), (1,) * 4
    w = (x, 1, 1, 1)
    partition = validate_coarser(c4, theta_star_classes(c4).classes)
    entries = [
        lambda: wiener_weighted_via_cuts(c4, w, partition),
        lambda: weighted_wiener_lower_bound(c4, w),
        lambda: tree_wiener_linear(p4, w),
        lambda: tree_wiener_double_linear(p4, ones, w),
        lambda: WeightedGraph(c4, w),
        lambda: DoubleWeightedGraph(c4, ones, w),
        lambda: wiener_weighted(c4, w),
        lambda: wiener_plus(c4, w),
    ]
    for entry in entries:
        with pytest.raises(GraphError, match=re.escape(f"vertex 0 is {x!r}, must be an int or")):
            entry()
    with pytest.raises(TypeError):  # the engine itself takes no float either
        CutEngine(c4).values([(w, None)])
    # integers of every kind and Fractions still pass
    exact = (np.int64(3), True, Fraction(4, 2), 1)
    assert wiener_weighted_via_cuts(c4, exact, partition) == wiener_weighted(c4, (3, 1, 2, 1))


def test_parse_weights():
    weights = read_weights("0 2\n1 3 4\n# c\n2 1/2\n", 3)
    assert weights.values(0) == (2, 3, Fraction(1, 2))
    assert weights.values(1) == (1, 4, 1)


def test_parse_weights_errors():
    with pytest.raises(ParseError, match="line 1"):
        read_weights("0 x\n1 1\n", 2)
    with pytest.raises(ParseError, match="twice"):
        read_weights("0 1\n0 2\n", 2)
    with pytest.raises(ParseError, match="missing"):
        read_weights("0 1\n", 2)
    with pytest.raises(ParseError, match="out of range"):
        read_weights("5 1\n", 2)
