"""The one-pass cut engine and its array kernels against the pure-Python oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import topocut.cut_method as cut_method
from topocut.cli import main
from topocut.cut_method import CutEngine, index_terms, wiener_double_via_cuts
from topocut.families import (
    complete_graph,
    cycle_graph,
    gen_house,
    hypercube_graph,
    path_graph,
    random_connected_graph,
)
from topocut.graph import (
    Graph,
    all_pairs_distances,
    components_after_deletion,
    distance_matrix,
    format_edge_list,
)
from topocut.indices import DoubleWeightedGraph, _wiener_double, wiener_weighted
from topocut.theta import is_partial_cube, theta_star_classes, validate_coarser

from strategies import connected_graphs, trees


def product_of_completes(a: int, b: int) -> Graph:
    """K_a x K_b (rook's graph): (i, j) adjacent when one coordinate differs."""
    n = a * b
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u // b == v // b) != (u % b == v % b)
    ]
    return Graph(n, edges)


@st.composite
def family_graphs(draw):
    """Trees, odd cycles, K_n, hypercubes, K_a x K_b and random graphs."""
    kind = draw(st.sampled_from(["tree", "odd_cycle", "complete", "cube", "product", "random"]))
    if kind == "tree":
        return draw(trees(min_n=1, max_n=12))
    if kind == "odd_cycle":
        return cycle_graph(2 * draw(st.integers(1, 6)) + 1)
    if kind == "complete":
        return complete_graph(draw(st.integers(1, 8)))
    if kind == "cube":
        return hypercube_graph(draw(st.integers(1, 4)))
    if kind == "product":
        return product_of_completes(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    return draw(connected_graphs(min_n=2, max_n=12))


# Vertex weights: small ints, p/q fractions, values near 2**53 (past
# float64's exact range) and near 2**63 (past the int64 guard, so the
# kernels fall back to Python ints).
WEIGHTS = {
    "int": st.integers(1, 9),
    "fraction": st.builds(Fraction, st.integers(1, 20), st.integers(1, 7)),
    "near53": st.integers(2**53 - 50, 2**53 + 50),
    "near63": st.integers(2**63 - 50, 2**63 + 50),
}


def oracle_values(g, a, b):
    d = all_pairs_distances(g)
    degs = tuple(len(r) for r in g.adj)
    ones = (1,) * g.n
    return {
        "wiener": wiener_weighted(g, ones, d),
        "degree_distance": _wiener_double(g, degs, ones, d),
        "gutman": _wiener_double(g, degs, degs, d) // 2,
        "wiener_weighted": wiener_weighted(g, a, d),
        "wiener_plus": _wiener_double(g, a, ones, d),
        "wiener_double": _wiener_double(g, a, b, d),
    }


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@given(g=family_graphs(), data=st.data())
def test_engine_matches_oracle(kind, g, data):
    a = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    b = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    terms = index_terms(g, a, b)
    want = oracle_values(g, a, b)
    partitions = [None]
    if g.m:
        partitions.append(validate_coarser(g, [range(g.m)]))  # one block, no closed form
    for partition in partitions:
        got = CutEngine(g, partition).values(list(terms.values()))
        assert dict(zip(terms, got)) == want


def test_int64_guard_falls_back_to_python_ints():
    # (n - 1) * sum(w) passes 2**62, so int64 would wrap; Python ints do not
    g = random_connected_graph(30, 60, seed=3)
    a = tuple(2**63 - 1 - v for v in range(g.n))
    b = tuple(2**62 + 7 * v for v in range(g.n))
    engine = CutEngine(g)
    assert not engine.partial_hamming  # the D @ B kernel runs
    assert engine.values([(a, b), (a, None)]) == [
        _wiener_double(g, a, b),
        wiener_weighted(g, a),
    ]


def test_fraction_results_keep_their_type():
    g = cycle_graph(5)
    a = (Fraction(1, 2), 1, Fraction(3, 4), 2, 5)
    (value,) = CutEngine(g).values([(a, None)])
    assert value == wiener_weighted(g, a)
    assert isinstance(value, Fraction)


def test_whole_valued_fractions_stay_fractions():
    # every weight a whole-valued Fraction: the oracle sums Fractions, and
    # so must the engine, though no denominator needs scaling
    g = cycle_graph(5)
    a = (Fraction(2),) * 5
    want = _wiener_double(g, a, a)
    assert want == Fraction(120) and isinstance(want, Fraction)
    partition = validate_coarser(g, [range(g.m)])
    for engine in (CutEngine(g), CutEngine(g, partition)):
        double, single = engine.values([(a, a), (a, None)])
        assert (double, single) == (want, wiener_weighted(g, a))
        assert isinstance(double, Fraction) and isinstance(single, Fraction)
    assert isinstance(wiener_double_via_cuts(DoubleWeightedGraph(g, a, a), partition), Fraction)
    (value,) = CutEngine(g).values([((1,) * 5, None)])
    assert value == 15 and type(value) is int


def test_closed_values_are_the_hamming_bound():
    g = cycle_graph(5)  # one class, quotient C5: the pair sum undercounts
    engine = CutEngine(g)
    assert engine.values([((1,) * 5, None)], closed=True) == [10]
    assert engine.values([((1,) * 5, None)]) == [15]


def test_compute_runs_theta_once_and_each_quotient_once(tmp_path, capsys, monkeypatch):
    calls = {"theta": 0, "quotient": []}
    real_theta, real_quotient = cut_method.theta_star_classes, cut_method.quotient

    def theta(g, *args):
        calls["theta"] += 1
        return real_theta(g, *args)

    def quotient(g, block):
        calls["quotient"].append(tuple(block))
        return real_quotient(g, block)

    monkeypatch.setattr(cut_method, "theta_star_classes", theta)
    monkeypatch.setattr(cut_method, "quotient", quotient)
    for g, method in ((hypercube_graph(4), "hamming"), (random_connected_graph(30, 50, 1), "cuts")):
        calls["theta"], calls["quotient"] = 0, []
        f = tmp_path / "g.txt"
        f.write_text(format_edge_list(g))
        assert main(["compute", str(f), "--json"]) == 0
        assert f'"method": "{method}"' in capsys.readouterr().out
        assert calls["theta"] == 1
        assert len(calls["quotient"]) == len(set(calls["quotient"])) == len(real_theta(g))


@given(connected_graphs(min_n=1, max_n=14))
def test_distance_matrix_matches_bfs_rows(g):
    d = distance_matrix(g)
    assert d.tolist() == [list(r) for r in all_pairs_distances(g)]


@pytest.mark.parametrize(
    "g", [path_graph(200), gen_house(60), cycle_graph(129), hypercube_graph(7)]
)
def test_distance_matrix_long_graphs_and_dtype(g):
    d = distance_matrix(g)
    assert d.tolist() == [list(r) for r in all_pairs_distances(g)]
    assert d.dtype == (np.int8 if g.n <= 128 else np.int16)


def _components_reference(g, removed):
    """Plain DFS over a rebuilt adjacency list (the former implementation)."""
    removed = set(removed)
    rows = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if i not in removed:
            rows[u].append(v)
            rows[v].append(u)
    comp = [-1] * g.n
    members = []
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        comp[start] = len(members)
        group, stack = [start], [start]
        while stack:
            for v in rows[stack.pop()]:
                if comp[v] < 0:
                    comp[v] = len(members)
                    group.append(v)
                    stack.append(v)
        members.append(tuple(sorted(group)))
    return tuple(comp), len(members), tuple(members)


@given(connected_graphs(min_n=1, max_n=14), st.data())
def test_components_after_deletion_matches_reference(g, data):
    removed = data.draw(st.lists(st.integers(0, g.m - 1), max_size=g.m)) if g.m else []
    comp = components_after_deletion(g, removed)
    assert (comp.component_of, comp.count, comp.members) == _components_reference(g, removed)


@given(connected_graphs(min_n=2, max_n=12))
def test_is_partial_cube_reuses_given_distances(g):
    d = distance_matrix(g)
    classes = theta_star_classes(g, d)
    assert is_partial_cube(g, classes, d) == is_partial_cube(g)
    assert theta_star_classes(g, all_pairs_distances(g)) == classes
