"""The cut engine's contraction and array kernels against the pure-Python references."""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topocut
import topocut.cut_method as cut_method
import topocut.exact as exact
import topocut.graph as graph_module
import topocut.theta as theta_module
from topocut.cli import main
from topocut.cut_method import (
    CutEngine,
    column_values,
    is_partial_cube,
    term_pairs,
    wiener_double_via_cuts,
)
from topocut.families import (
    complete_graph,
    cycle_graph,
    gen_house,
    hypercube_graph,
    path_graph,
    random_connected_graph,
    windmill_graph,
)
from topocut.graph import (
    Graph, GraphError, all_pairs_distances, degree_vector, distance_matrix, format_edge_list,
)
from topocut.hamming import is_partial_hamming, weighted_wiener_lower_bound
from topocut.indices import DoubleWeightedGraph, _wiener_double, wiener_weighted
from topocut.theta import PartitionError, quotient, theta_star_classes, validate_coarser

from strategies import connected_graphs, pendant_graphs, trees


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


def report_terms(g, a, b):
    """The six reported indices as weight pairs of vectors, in report order."""
    ones, degs = (1,) * g.n, degree_vector(g)
    return {
        "wiener": (ones, None),
        "degree_distance": (degs, ones),
        "gutman": (degs, None),
        "wiener_weighted": (a, None),
        "wiener_plus": (a, ones),
        "wiener_double": (a, b),
    }


def block_matrices(engines, terms, closed=False):
    """Each engine's undivided block values of ``terms`` as nested lists,
    on one ``Weights`` of the terms' vectors."""
    weights, pairs = term_pairs(terms)
    return [e.block_matrix(weights, pairs, closed=closed).tolist() for e in engines]


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
    terms = report_terms(g, a, b)
    want = oracle_values(g, a, b)
    partitions = [None]
    if g.m:
        partitions.append(validate_coarser(g, [range(g.m)]))  # one block, no closed form
    for partition in partitions:
        got = CutEngine(g, partition).values(list(terms.values()))
        assert dict(zip(terms, got)) == want


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@settings(max_examples=60)
@given(g=pendant_graphs(), data=st.data())
def test_engine_with_pendant_trees_matches_oracle(kind, g, data):
    # the pendant blocks' closed sums and the folded core against the
    # oracle, and block for block against the whole contraction
    a = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    b = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    terms = report_terms(g, a, b)
    engine = CutEngine(g)
    assert dict(zip(terms, engine.values(list(terms.values())))) == oracle_values(g, a, b)
    classes = theta_star_classes(g).classes
    whole = CutEngine(g, validate_coarser(g, classes))
    for closed in (False, True):
        mine, wanted = block_matrices((engine, whole), list(terms.values()), closed)
        assert mine == wanted
    assert_engine_matches_dfs(engine, classes)


def test_fractions_on_pendant_vertices_only_stay_fractions():
    # p/q weights only on the hanging path: every folded core weight is
    # whole, and the results must still be Fractions, as in the oracle
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6)])
    a = (1, 2, 3, 4, 5, Fraction(1, 2), Fraction(1, 2))
    engine = CutEngine(g)
    assert engine.sizes == (5, 2, 2)
    got = engine.values([(a, None), (a, (1,) * 7)])
    assert got == [wiener_weighted(g, a), _wiener_double(g, a, (1,) * 7)]
    assert all(isinstance(v, Fraction) for v in got)


def test_given_classes_that_join_a_pendant_edge_are_contracted_whole():
    # a caller's classes with a pendant edge in a larger block: a given
    # partition is contracted whole, and the Hamming and partial-cube tests
    # take given classes as that partition
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    merged = theta_module.ThetaClasses(((0, 1, 2), (3, 4)), (0, 0, 0, 1, 1))
    partition = validate_coarser(g, merged.classes)
    engine = CutEngine(g, partition)
    assert engine.sizes == (3, 3)
    assert_engine_matches_dfs(engine, partition.blocks)
    ones = (1,) * g.n
    assert engine.values([(ones, None)]) == [wiener_weighted(g, ones)]
    assert engine.complete == (True, False)  # the merged bridges' quotient is P3
    assert is_partial_hamming(g) and not is_partial_hamming(g, merged)


def test_given_classes_are_checked_against_theta_star():
    # one "class" per edge of C5 splits its one theta*-class: the cut sum
    # would read 0 (W is 15) and C5 would pass as partial Hamming
    g = cycle_graph(5)
    bad = theta_module.ThetaClasses(tuple((e,) for e in range(5)), tuple(range(5)))
    for check in (is_partial_hamming, is_partial_cube,
                  lambda g, c: weighted_wiener_lower_bound(g, (1,) * g.n, c)):
        with pytest.raises(PartitionError, match="theta\\*-class 0"):
            check(g, bad)


@st.composite
def open_block_graphs(draw):
    """Two to four odd cycles (C5, C7 or C9: each one theta*-class whose
    quotient is itself, so not complete), with maybe a random connected
    graph among them, each glued to an earlier one at a shared vertex or by
    a path of bridges; then pendant trees, under a random numbering."""
    parts = [("cycle", 2 * draw(st.integers(2, 4)) + 1)
             for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), ("random", None))
    edges, n = [], 0
    for i, (kind, size) in enumerate(parts):
        if kind == "cycle":
            part = [(v, (v + 1) % size) for v in range(size)]
        else:
            h = draw(connected_graphs(min_n=2, max_n=8))
            size, part = h.n, list(h.edges)
        if i == 0:
            end, n = 0, 1
        else:
            path = [draw(st.integers(0, n - 1))]
            path += list(range(n, n + draw(st.integers(0, 2))))
            edges += list(zip(path, path[1:]))
            end, n = path[-1], n + len(path) - 1
        # the part's vertex 0 is the path's end: the anchor when it is alone
        relabel = [end] + list(range(n, n + size - 1))
        n += size - 1
        edges += [(relabel[u], relabel[v]) for u, v in part]
    hanging = draw(st.integers(0, 8))
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(n, n + hanging)]
    n += hanging
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@settings(max_examples=40)
@given(g=open_block_graphs(), data=st.data())
def test_subtracted_block_matches_its_quotient(kind, g, data):
    # the largest non-complete block is the core sum minus the other core
    # blocks; block for block it must equal its own quotient's D B, which
    # the whole contraction of the same blocks computes
    a = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    b = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    weights, pairs = term_pairs(list(report_terms(g, a, b).values()))
    sizes = []
    real = cut_method.distance_matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cut_method, "distance_matrix", lambda q: sizes.append(q.n) or real(q))
        engine = CutEngine(g)
        got = engine.block_matrix(weights, pairs)
    open_blocks = engine.complete.count(False)
    assert open_blocks >= 2
    assert len(sizes) == open_blocks - 1  # every open block but the largest
    whole = CutEngine(g, validate_coarser(g, theta_star_classes(g).classes))
    assert got.tolist() == whole.block_matrix(weights, pairs).tolist()
    assert column_values(got, weights, pairs) == list(oracle_values(g, a, b).values())


@pytest.mark.parametrize("kind", ["int", "fraction"])
@settings(max_examples=40)
@given(g=st.one_of(open_block_graphs(), pendant_graphs()), data=st.data())
def test_engine_on_theta_labels_matches_the_validated_classes(kind, g, data):
    # the engine over theta*'s label array against the same classes handed
    # over as tuples: pendant trees and bridges inside the 2-core included
    a = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    b = data.draw(st.tuples(*[WEIGHTS[kind]] * g.n))
    classes = theta_star_classes(g)
    engine = CutEngine(g)
    given = CutEngine(g, validate_coarser(g, classes.classes))
    assert engine.block_of.tolist() == list(classes.class_of)
    assert engine.sizes == given.sizes and engine.complete == given.complete
    mine, theirs = engine_labels(engine), engine_labels(given)
    for i in range(len(engine.sizes)):
        edges = list(map(tuple, given.quotient_edges(i).tolist()))
        assert renamed_edges(engine, i, mine[i], theirs[i]) == edges
    mine, wanted = block_matrices((engine, given), list(report_terms(g, a, b).values()))
    assert mine == wanted


def test_compute_builds_no_edge_tuples_and_reduce_no_engine(tmp_path, capsys, monkeypatch):
    # compute by cuts, hamming and auto hands theta*'s label array to the
    # engine without grouping it into tuples; the reduce route sums on the
    # reduced graph without a cut engine
    def refuse(*args, **kwargs):
        raise AssertionError("not on the compute path")

    random_file, cube_file = tmp_path / "random.txt", tmp_path / "cube.txt"
    random_file.write_text(format_edge_list(random_connected_graph(30, 50, 1)))
    cube_file.write_text(format_edge_list(hypercube_graph(4)))
    with monkeypatch.context() as patch:
        patch.setattr(theta_module, "_groups", refuse)
        patch.setattr(cut_method, "_groups", refuse, raising=False)
        for path, method in ((random_file, "cuts"), (random_file, "auto"),
                             (cube_file, "hamming"), (cube_file, "auto")):
            assert main(["compute", str(path), "--method", method, "--json"]) == 0
            route = "cuts" if path is random_file else "hamming"
            assert f'"method": "{route}"' in capsys.readouterr().out
    monkeypatch.setattr(CutEngine, "__init__", refuse)
    for path in (random_file, cube_file):
        assert main(["compute", str(path), "--method", "reduce", "--json"]) == 0
        assert '"method": "reduce"' in capsys.readouterr().out


def test_cut_solve_builds_no_adjacency_tuples(tmp_path, capsys, monkeypatch):
    # the eccentricity probe of distance_matrix, one BFS from vertex 0,
    # walks the CSR arrays: this graph's 2-core (237 vertices, 337 edges)
    # is sparse enough for the probe to run, and no Graph.adj may be built
    def refuse(self):
        raise AssertionError("Graph.adj built")

    probes = []
    real_bfs = graph_module.bfs_distances
    path = tmp_path / "random.txt"
    path.write_text(format_edge_list(random_connected_graph(400, 500, 1)))
    monkeypatch.setattr(Graph, "adj", property(refuse))
    monkeypatch.setattr(graph_module, "bfs_distances", lambda g, s: probes.append(s) or real_bfs(g, s))
    assert main(["compute", str(path), "--method", "cuts", "--json"]) == 0
    assert '"method": "cuts"' in capsys.readouterr().out
    assert probes == [0]


@pytest.mark.parametrize("past", [0, 1])
def test_distance_sums_across_the_int32_limit(past, monkeypatch):
    # P3 with all of b on vertex 2: (D b)_0 = 2 c is the largest partial sum,
    # and the bound (n - 1) sum|b| = 2 c sits just below 2^31 (int32 einsum)
    # or at it (the weights' own dtype)
    g = path_graph(3)
    c = 2**30 - 1 + past
    a, b = (1, 1, 1), (0, 0, c)
    kernels = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: kernels.append("int32") or real(*args))
    got = cut_method.distance_sums(g, exact.weights_of([a, b]), [(0, 1, False), (1, 1, True)])
    assert kernels == ([] if past else ["int32"])
    assert got.tolist() == [_wiener_double(g, a, b), _wiener_double(g, b, b)]


@pytest.mark.parametrize("past", [0, 1])
def test_distance_sums_across_the_int64_bound(past):
    # (n - 1) sum|a| sum|b| on P3 just below 2^62 (int64) or at it (Python ints)
    g = path_graph(3)
    a, b = (2**31 - 2, 1, 1), (1, 1, 2**30 - 3 + past)
    got = cut_method.distance_sums(g, exact.weights_of([a, b]), [(0, 1, False)])
    assert got.dtype == (object if past else np.int64)
    assert got.tolist() == [_wiener_double(g, a, b)]


@pytest.mark.parametrize("big, kernel, dtype", [
    (2**20, ["int32"], np.int64), (2**27, [], np.int64), (2**40, [], object),
])
def test_reduce_route_sums_across_the_guards(tmp_path, capsys, monkeypatch, big, kernel, dtype):
    # C5 with an open twin of vertex 0 reduces to C5, where (n - 1) sum|b|
    # passes 2^31 for weights near 2^27 and (n - 1) sum|a| sum|b| passes
    # 2^62 near 2^40: the route takes the guarded D B and prints the
    # oracle's indices
    g = Graph(6, [(v, (v + 1) % 5) for v in range(5)] + [(5, 1), (5, 4)])
    graph_file, weights_file = tmp_path / "g.txt", tmp_path / "w.txt"
    graph_file.write_text(format_edge_list(g))
    weights_file.write_text("".join(f"{v} {big + v} {big - v}\n" for v in range(6)))
    kernels, dtypes = [], []
    real_einsum, real_dtype = np.einsum, cut_method._exact_dtype
    monkeypatch.setattr(np, "einsum", lambda *args: kernels.append("int32") or real_einsum(*args))
    monkeypatch.setattr(cut_method, "_exact_dtype",
                        lambda bound: dtypes.append(real_dtype(bound)) or dtypes[-1])
    argv = ["compute", str(graph_file), "--weights", str(weights_file), "--method", "reduce"]
    assert main([*argv, "--check", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["indices"]) == 6
    assert kernels == kernel and dtypes[-1] is dtype


def _two_pentagons_with_trees() -> Graph:
    """Two C5s joined by a bridge, with three pendant edges: two open
    blocks and four K2 blocks, one of them in the 2-core."""
    edges = [(v, (v + 1) % 5) for v in range(5)] + [(5 + v, 5 + (v + 1) % 5) for v in range(5)]
    edges += [(2, 7), (0, 10), (10, 11), (8, 12)]
    return Graph(13, edges)


@pytest.mark.parametrize("past", [0, 1])
def test_core_db_across_the_int64_guard(past, monkeypatch):
    # the largest weight sits on a pendant vertex, so it reaches the core
    # D B folded; (n - 1) sum|a| is just below 2**62 (int64) or at it
    # (Python ints)
    g = _two_pentagons_with_trees()
    x = (2**62 - 1) // (g.n - 1) - (g.n - 1) + past  # sum(a) = x + 12
    a = (1,) * 11 + (x,) + (1,)  # vertex 11 ends the path 0-10-11
    b = tuple(range(1, g.n + 1))
    assert ((g.n - 1) * sum(a) < 2**62) != past
    dtypes = []

    def recorded(bound):
        dtypes.append(exact._exact_dtype(bound))
        return dtypes[-1]

    monkeypatch.setattr(cut_method, "_exact_dtype", recorded)
    engine = CutEngine(g)
    assert engine.complete.count(False) == 2
    weights, pairs = term_pairs([(a, b), (a, None)])
    got = engine.block_matrix(weights, pairs)
    assert dtypes[0] is (object if past else np.int64)
    whole = CutEngine(g, validate_coarser(g, theta_star_classes(g).classes))
    assert got.tolist() == whole.block_matrix(weights, pairs).tolist()
    assert column_values(got, weights, pairs) == [_wiener_double(g, a, b), wiener_weighted(g, a)]


@pytest.mark.parametrize("past", [0, 1])
def test_db_in_int32_across_its_limit(past, monkeypatch):
    # C5's D B partial sums are at most (q - 1) sum|B| = 4 sum(b): at
    # 2**31 - 4 D B takes the int32 einsum, at 2**31 the int64 matmul
    g = cycle_graph(5)
    a = (1, 2, 3, 4, 5)
    b = (2**29 - 5 + past, 1, 1, 1, 1)
    assert (4 * sum(b) < 2**31) != past
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(args[0]) or real(*args, **kw))
    assert CutEngine(g).values([(a, b), (b, a)]) == [_wiener_double(g, a, b)] * 2
    assert bool(calls) != past


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


@pytest.mark.parametrize("past", [0, 1])
def test_db_products_across_the_int64_guard(past, monkeypatch):
    # C5 is one class whose quotient is C5 itself, so D B runs; its entries
    # and the component sums are bounded by (n - 1) sum|w| = 4 sum|a|, which
    # is 2**62 - 4 (int64) or 2**62 (Python ints).  The first guard the
    # engine asks is that one; the block values take a guard of their own
    # (test_block_values_across_the_int64_guard), past int64 here either way.
    g = cycle_graph(5)
    a = (2**60 - 5 + past, 1, 1, 1, 1)
    b = (1, 2, 3, 4, 5)
    assert (4 * sum(a) < 2**62) != past
    dtypes = []

    def recorded(bound):
        dtypes.append(exact._exact_dtype(bound))
        return dtypes[-1]

    monkeypatch.setattr(cut_method, "_exact_dtype", recorded)
    engine = CutEngine(g)
    assert not engine.partial_hamming
    assert engine.values([(a, b), (a, None)]) == [_wiener_double(g, a, b), wiener_weighted(g, a)]
    assert dtypes[0] is (object if past else np.int64)


@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("shape", ["cycle", "path"])
def test_block_values_across_the_int64_guard(shape, past):
    # a block value of W(a, b) is at most s T_a T_b, with s the largest D B
    # quotient's vertex count less one, which bounds its distances: C5 is
    # its own quotient, so s = 4 (a bound of T_a T_b alone would be wrong),
    # and a path's blocks are all closed K2 sums, so s = 1.  T_a T_b s is just below 2**62 (int64)
    # or at it (Python ints), and the sum guard stays int64 on both sides.
    g, s = (cycle_graph(5), 4) if shape == "cycle" else (path_graph(4), 1)
    half = 2**31 if s == 1 else 2**30  # T_a = half, T_b = half - 1 + past
    a = (half - (g.n - 1),) + (1,) * (g.n - 1)
    b = (half - g.n + past,) + (1,) * (g.n - 1)
    assert (s * sum(a) * sum(b) < 2**62) != past
    weights, pairs = term_pairs([(a, b)])
    values = CutEngine(g).block_matrix(weights, pairs)
    assert values.dtype == (object if past else np.int64)
    assert column_values(values, weights, pairs) == [_wiener_double(g, a, b)]


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


def test_scaled_skips_the_fraction_scan_for_plain_ints(monkeypatch):
    # plain ints take no isinstance(x, Fraction) check (an ABC check per
    # weight); any other vector keeps the scan, and a whole-valued Fraction
    # still marks the term fractional
    checks = []

    class Counting(type):
        def __instancecheck__(cls, obj):
            checks.append(obj)
            return isinstance(obj, Fraction)

    class CountedFraction(metaclass=Counting):
        pass

    def scaled(w):
        weights = exact.weights_of([w])
        return weights.rows[0].tolist(), weights.scales[0], weights.fractional[0]

    monkeypatch.setattr(exact, "Fraction", CountedFraction)
    assert scaled((3, 1, 2**70)) == ([3, 1, 2**70], 1, False)
    assert checks == []
    assert scaled((1, Fraction(2), 3)) == ([1, 2, 3], 1, True)
    assert scaled((True, 2)) == ([1, 2], 1, False)
    assert len(checks) == 5
    monkeypatch.undo()
    assert scaled((1, Fraction(1, 2), Fraction(2, 3))) == ([6, 3, 4], 6, True)
    (value,) = CutEngine(path_graph(3)).values([((1, Fraction(2), 1), None)])
    assert value == 6 and isinstance(value, Fraction)


def test_closed_values_are_the_hamming_bound():
    g = cycle_graph(5)  # one class, quotient C5: the pair sum undercounts
    engine = CutEngine(g)
    assert engine.values([((1,) * 5, None)], closed=True) == [10]
    assert engine.values([((1,) * 5, None)]) == [15]


def test_commands_run_theta_once_and_no_per_block_pass(tmp_path, capsys, monkeypatch):
    # compute, verify and hamming build one engine: one peel, theta* once, no
    # quotient per block, and ceil(log2 k) contraction labellings for the k classes
    # of the 2-core (the random graph's pendant edges are 4 of its 5 classes)
    calls = {"theta": 0, "labels": 0, "per_block": 0, "peel": 0}
    real_theta, real_labels = cut_method._theta_labels, cut_method.component_labels
    real_peel = graph_module.pendant_peel

    def peel(*args):
        calls["peel"] += 1
        return real_peel(*args)

    def theta(g, *args):
        calls["theta"] += 1
        return real_theta(g, *args)

    def labels(*args):
        calls["labels"] += 1
        return real_labels(*args)

    def per_block(*args):
        calls["per_block"] += 1
        raise AssertionError("per-block pass over the whole graph")

    monkeypatch.setattr(cut_method, "_theta_labels", theta)
    monkeypatch.setattr(graph_module, "pendant_peel", peel)
    monkeypatch.setattr(cut_method, "component_labels", labels)
    monkeypatch.setattr(theta_module, "quotient", per_block)
    for g, method in ((hypercube_graph(4), "hamming"), (random_connected_graph(30, 50, 1), "cuts")):
        k = len(theta_module.theta_star_classes(g)) - len(g.peel.order)
        f = tmp_path / "g.txt"
        f.write_text(format_edge_list(g))
        for argv in (["compute", str(f), "--json"], ["compute", str(f)], ["verify", str(f)],
                     ["hamming", str(f), "--json"]):
            calls.update(theta=0, labels=0, per_block=0, peel=0)
            assert main(argv) == 0
            out = capsys.readouterr().out
            if argv[-1] == "--json" and argv[0] == "compute":
                assert f'"method": "{method}"' in out
            assert calls["theta"] == calls["peel"] == 1
            assert calls["per_block"] == 0
            assert calls["labels"] == (k - 1).bit_length()


def _child_modules(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with topocut on its path, then
    report the scipy and topocut modules it loaded and the topocut modules
    that hold scipy's ``connected_components``; ``code`` may set ``result``."""
    probe = code + """
import json, sys
print(json.dumps({
    "result": globals().get("result"),
    "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
    "topocut": sorted(name for name in sys.modules if name.startswith("topocut")),
    "components": sorted(name for name, m in list(sys.modules.items())
                         if name.startswith("topocut") and hasattr(m, "connected_components")),
}))
"""
    src = str(Path(graph_module.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _child_modules("import topocut.cli")["scipy"] == []


ENGINE = ["topocut", "topocut.cli", "topocut.cut_method", "topocut.exact", "topocut.graph",
          "topocut.indices", "topocut.solve", "topocut.theta"]


def test_each_route_loads_only_its_modules(tmp_path):
    # the package and the CLI load the cut engine and the solve module alone;
    # the phenylene, reduction, family and Hamming modules load when a solve
    # needs them
    assert _child_modules("import topocut")["topocut"] == ["topocut"]
    child = _child_modules("import topocut\nresult = topocut.families.__name__")
    assert child["result"] == "topocut.families" and "topocut.reduction" not in child["topocut"]
    assert _child_modules("import topocut.cli")["topocut"] == ENGINE
    graph = tmp_path / "q4.txt"
    graph.write_text(format_edge_list(hypercube_graph(4)))
    cells = tmp_path / "chain.cells"
    cells.write_text("0 0\n1 0\n2 0\n")
    runs = {
        "cuts": ([str(graph), "--method", "cuts"], []),
        "hamming": ([str(graph), "--method", "hamming"], []),
        "auto": ([str(graph)], []),
        "trees": (["--cells", str(cells)], ["topocut.phenylene"]),
        "reduce": ([str(graph), "--method", "reduce"], ["topocut.reduction"]),
    }
    for method, (argv, extra) in runs.items():
        child = _child_modules(f"""
import contextlib, io
from topocut.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    result = main(["compute", *{argv!r}, "--json"])
""")
        assert child["result"] == 0, method
        assert child["topocut"] == sorted(ENGINE + extra), method


# Every public name of the package, with the module it was first exported
# from; phenylene re-exports graph's PlacementError and exact's NotATreeError.
PUBLIC = {
    "graph": "Graph GraphError ParseError all_pairs_distances build_graph degree_vector "
             "format_edge_list parse_edge_list",
    "theta": "EdgePartition PartitionError QuotientGraph ThetaClasses quotient "
             "theta_star_classes validate_coarser",
    "indices": "DoubleWeightedGraph WeightedGraph degree_distance gutman wiener wiener_double "
               "wiener_plus wiener_weighted",
    "cut_method": "degree_distance_via_cuts is_partial_cube wiener_double_via_cuts "
                  "wiener_weighted_via_cuts",
    "phenylene": "Benzenoid BenzenoidPlacement NotATreeError Phenylene PlacementError "
                 "QuotientTree build_benzenoid build_phenylene dd_gut_via_squeeze "
                 "dd_gut_via_trees quotient_trees tree_wiener_double_linear tree_wiener_linear",
    "reduction": "ReductionStep r_classes reduce_fully reduce_fully_single reduce_once_r "
                 "reduce_once_s s_classes",
    "hamming": "NotPartialHammingError gutman_exact_hamming gutman_lower_bound "
               "is_partial_hamming weighted_wiener_lower_bound",
}
SUBMODULES = ("cut_method", "exact", "families", "graph", "hamming", "indices", "phenylene",
              "reduction", "theta")


def test_public_names_resolve_to_their_home_objects():
    names = {name: home for home, names in PUBLIC.items() for name in names.split()}
    assert len(names) == 52
    assert set(topocut.__all__) == {*names, *SUBMODULES}
    for name, home in names.items():
        assert getattr(topocut, name) is getattr(importlib.import_module(f"topocut.{home}"), name)
    for name in SUBMODULES:
        assert getattr(topocut, name) is importlib.import_module(f"topocut.{name}")
    assert topocut.__version__ == "0.1.0"
    assert {*names, *SUBMODULES, "__version__"} <= set(dir(topocut))
    with pytest.raises(AttributeError, match="no_such_name"):
        topocut.no_such_name


def test_solves_label_components_without_scipy(tmp_path):
    # components come from numpy alone, and a solve whose distances take the
    # bit-packed BFS loads no scipy module: on the hamming and the cuts route,
    # a house of 200 rungs (vertex 0's eccentricity 200, the degree slots)
    # and the reductions
    inputs = {"q4.txt": hypercube_graph(4), "random.txt": random_connected_graph(30, 50, 1)}
    for name, g in inputs.items():
        (tmp_path / name).write_text(format_edge_list(g))
    runs = [
        ([str(tmp_path / "q4.txt")], "hamming"),
        ([str(tmp_path / "random.txt")], "cuts"),
        (["--family", "house", "--n", "200"], "hamming"),
        (["--family", "windmill", "--n", "20", "--method", "reduce"], "reduce"),
    ]
    child = _child_modules(f"""
import contextlib, io, json
from topocut.cli import main
result = []
for argv in {[argv for argv, _ in runs]!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["compute", *argv, "--json"])
    result.append((code, json.loads(out.getvalue())["method"]))
""")
    assert child["result"] == [[0, method] for _, method in runs]
    assert child["scipy"] == []
    assert child["components"] == []


def test_chain_matches_the_oracle_in_a_fresh_interpreter():
    # the trees route's Euler tour imports scipy on its first call
    child = _child_modules("""
import contextlib, io, json
from topocut.cli import main
result = {}
for method in ("auto", "oracle"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compute", "--family", "chain", "--n", "12", "--method", method, "--json"]) == 0
    report = json.loads(out.getvalue())
    result[report["method"]] = report["indices"]
""")
    assert child["result"]["trees"] == child["result"]["oracle"]
    assert len(child["result"]["oracle"]) == 3


def engine_labels(engine):
    """Each block's component of every vertex, in the engine's numbering
    (``quotient_edges``' ends), read from the sums that ``block_matrix``
    reads, with one indicator row per vertex.  A core block's leaf sums
    hold each vertex's 1 in the column of its component.  A pendant block
    splits the vertices by the folded rows at its vertex, the 1s below its
    edge, and its side with vertex 0 is component 0."""
    n = engine.g.n
    rows = np.eye(n, dtype=np.int64)  # row v: the indicator of vertex v
    labels = [None] * len(engine.sizes)
    core = rows
    if engine._peeled is not None:
        rows = engine._fold(rows)
        core = rows[:, engine.g.peel.core]
        pendant = np.flatnonzero(engine._core_block < 0)
        for i, below in zip(pendant, rows[:, engine._pendant_vertex].T):
            labels[i] = (below != below[0]).astype(np.int64)
    sums = engine._leaf_sums(core).T
    for i, lo, hi in zip(engine._core_ids, engine._starts[:-1], engine._starts[1:]):
        part = sums[lo:hi]
        assert np.isin(part, (0, 1)).all() and (part.sum(axis=0) == 1).all()
        labels[i] = part.argmax(axis=0)
    return labels


def renamed_edges(engine, i, labels, names):
    """``quotient_edges(i)`` with each component renamed by ``names``, one
    vertex's name for the component ``labels`` puts it in; every vertex of
    a component must carry one name, and the names must differ."""
    rename = np.full(engine.sizes[i], -1, dtype=np.int64)
    rename[labels] = names
    assert (rename[labels] == names).all() and len(set(names)) == engine.sizes[i]
    return sorted(map(tuple, np.sort(rename[engine.quotient_edges(i)], axis=1).tolist()))


def test_quotients_come_from_the_contraction():
    # the contraction's components and edges are quotient()'s, pendant and
    # core blocks alike, and their distances sum to the graph's
    g = random_connected_graph(30, 50, 1)
    engine = CutEngine(g)
    assert_engine_matches_dfs(engine, theta_star_classes(g).classes)
    total = np.zeros((g.n, g.n), dtype=np.int64)
    for i, labels in enumerate(engine_labels(engine)):
        total += distance_matrix(Graph(engine.sizes[i], engine.quotient_edges(i)))[
            np.ix_(labels, labels)
        ]
    assert (total == distance_matrix(g)).all()


@settings(max_examples=80)
@given(st.one_of(pendant_graphs(), trees(min_n=2, max_n=30)))
def test_pendant_sides_match_component_labels(g):
    # a pendant block's two sides are the subtree below its edge and the
    # rest; deleting its edge and labelling the components must agree
    engine = CutEngine(g)
    labels = engine_labels(engine)
    blocks = theta_star_classes(g).classes
    peeled = set(g.peel.edge.tolist())
    pendant = [i for i, block in enumerate(blocks) if block[0] in peeled]
    assert len(pendant) == len(peeled)
    for i in pendant:
        keep = np.arange(g.m) != blocks[i][0]
        want = graph_module.component_labels(g.n, *g.edge_array[keep].T)[1]
        assert labels[i].tolist() == want.tolist()


# Block counts for the contraction: powers of two, which fill every range,
# and one past them, which adds a level whose ranges are nearly all empty.
BLOCK_COUNTS = (1, 2, 3, 4, 5, 8, 9, 16, 17)


@st.composite
def partitioned_graphs(draw):
    """A family graph and either its theta*-classes or a random coarser
    partition into k of BLOCK_COUNTS blocks."""
    kind = draw(st.sampled_from(["tree", "odd_cycle", "cube", "product", "random"]))
    if kind == "tree":
        g = draw(trees(min_n=1, max_n=24))
    elif kind == "odd_cycle":
        g = cycle_graph(2 * draw(st.integers(1, 6)) + 1)
    elif kind == "cube":
        g = hypercube_graph(draw(st.integers(1, 5)))
    elif kind == "product":
        g = product_of_completes(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    else:
        g = draw(connected_graphs(min_n=2, max_n=16))
    classes = theta_star_classes(g).classes
    counts = [k for k in BLOCK_COUNTS if k <= len(classes)]
    if not counts or draw(st.booleans()):
        return g, classes
    k = draw(st.sampled_from(counts))
    order = draw(st.permutations(range(len(classes))))
    owners = list(range(k)) + [draw(st.integers(0, k - 1)) for _ in classes[k:]]
    blocks = [[] for _ in range(k)]
    for c, owner in zip(order, owners):
        blocks[owner].extend(classes[c])
    return g, blocks


@settings(max_examples=150)
@given(partitioned_graphs())
def test_contraction_matches_quotient_dfs(case):
    assert_contraction_matches_dfs(*case)


@pytest.mark.parametrize("k", BLOCK_COUNTS)
def test_contraction_block_counts(k):
    # every count of BLOCK_COUNTS on a tree, a ladder, K3s sharing a vertex
    # and a random graph, blocks dealt out round robin over the classes
    graphs = (random_connected_graph(26, 25, seed=k), gen_house(20), windmill_graph(17),
              random_connected_graph(40, 48, seed=3))
    for g in graphs:
        classes = theta_star_classes(g).classes
        count = min(k, len(classes))
        assert_contraction_matches_dfs(
            g, [[e for c in classes[i::count] for e in c] for i in range(count)]
        )


def assert_contraction_matches_dfs(g, blocks):
    partition = validate_coarser(g, blocks)
    engine = CutEngine(g, partition)
    assert len(engine.sizes) == len(engine.complete) == len(blocks)
    assert_engine_matches_dfs(engine, partition.blocks)


def assert_engine_matches_dfs(engine, blocks):
    # Without a peel the engine numbers components by smallest vertex, as
    # quotient() does.  A peeled engine numbers a core block's components
    # by smallest core vertex, so its edges are compared renamed.  The
    # blocks are the engine's: its given partition's, or theta*'s classes.
    g = engine.g
    for i, (block, labels) in enumerate(zip(blocks, engine_labels(engine))):
        q = quotient(g, block)  # one labelling of G - F_i: the reference
        assert engine.sizes[i] == q.graph.n
        assert renamed_edges(engine, i, labels, q.component_of) == list(q.graph.edges)
        if engine._peeled is None:
            assert tuple(labels.tolist()) == q.component_of
            assert list(map(tuple, engine.quotient_edges(i).tolist())) == list(q.graph.edges)
        assert engine.complete[i] == (2 * q.graph.m == q.graph.n * (q.graph.n - 1))


def test_product_guard_boundary():
    # the products A_c B_c run in int64 only while sum|a| sum|b| < 2**62, and
    # only when the component sums do ((n - 1) sum|w| < 2**62)
    assert 2**31 * (2**31 - 1) < 2**62 == 2**31 * 2**31
    assert exact._exact_dtype(2**31 * (2**31 - 1)) is np.int64
    assert exact._exact_dtype(2**31 * 2**31) is object
    assert exact._exact_dtype((2**31 + 1) * 2**31) is object
    assert exact._exact_dtype(max(2**62, 1 * 1)) is object


@pytest.mark.parametrize(
    "a, b",
    [
        ((2**30, 2**30 - 1, 1), (2**30, 2**30 - 2, 1)),  # T_a T_b just under 2**62
        ((2**30, 2**30, 1), (2**30, 2**30, 1)),  # just over
        ((2**40, 2**40, 1), (2**41, 3, 2**39)),  # A_c B_c far past int64
    ],
)
def test_closed_sums_across_the_product_guard(a, b):
    g = path_graph(3)  # two K2 quotients, so both blocks take the closed sums
    engine = CutEngine(g)
    assert engine.partial_hamming
    assert (sum(a) * sum(b) < 2**62) == (max(a) < 2**40 and a != b)
    assert engine.values([(a, b), (a, None), (b, None)]) == [
        _wiener_double(g, a, b),
        wiener_weighted(g, a),
        wiener_weighted(g, b),
    ]


@given(connected_graphs(min_n=1, max_n=14))
def test_distance_matrix_matches_bfs_rows(g):
    d = distance_matrix(g)
    assert d.tolist() == [list(r) for r in all_pairs_distances(g)]


def _count_dijkstra(monkeypatch) -> dict:
    """Count the all-sources Dijkstra runs (``all``) and the degree-slot
    kernels (``slots``) of ``distance_matrix``."""
    import scipy.sparse.csgraph as csgraph

    runs = {"all": 0, "slots": 0}
    real_path, real_slots = csgraph.shortest_path, graph_module._slot_spread

    def path_spy(adj, *args, **kwargs):
        runs["all"] += kwargs.get("indices") is None
        return real_path(adj, *args, **kwargs)

    def slot_spy(*args):
        runs["slots"] += 1
        return real_slots(*args)

    monkeypatch.setattr(csgraph, "shortest_path", path_spy)
    monkeypatch.setattr(graph_module, "_slot_spread", slot_spy)
    return runs


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_distance_matrix_across_word_boundaries(n, monkeypatch):
    runs = _count_dijkstra(monkeypatch)
    for seed, m in enumerate((n - 1, n + 10, 3 * n)):
        g = random_connected_graph(n, m, seed)
        assert distance_matrix(g).tolist() == [list(r) for r in all_pairs_distances(g)]
    assert runs["all"] == 0  # every one took a bit-packed BFS


def broom(handle: int, bristles: int) -> Graph:
    """A path 0..handle with ``bristles`` leaves on its second-last vertex:
    vertex 0's eccentricity is ``handle``."""
    edges = [(i, i + 1) for i in range(handle)]
    edges += [(handle - 1, handle + 1 + j) for j in range(bristles)]
    return Graph(handle + 1 + bristles, edges)


def _dijkstra_eccentricity(n: int, m: int) -> int:
    """B = (n + 2m) // ceil(n / 64): the largest eccentricity of vertex 0 that
    ``distance_matrix`` runs as a bit-packed BFS."""
    return (n + 2 * m) // -(-n // 64)


@pytest.mark.parametrize(
    "switch, size",
    [pytest.param("short", b, id=str(b)) for b in (0, 1, 60, 110)]
    + [pytest.param("dijkstra", n, id=f"dijkstra-n{n}") for n in (193, 256, 257, 320)],
)
@pytest.mark.parametrize("past", [0, 1])
def test_distance_matrix_at_the_eccentricity_switch(switch, size, past, monkeypatch):
    # dijkstra: on a broom of ``size`` vertices vertex 0's eccentricity is B
    # (degree slots) or B + 1 (Dijkstra), and n, hence B, stays fixed.
    # short: a handle of 24 + ``past`` and ``size`` bristles, which carry n
    # across the 64-bit word boundaries and, past a few, make the handle's
    # second-last vertex a hub of the slots' shared reduceat; far below B,
    # so the degree slots run
    runs = _count_dijkstra(monkeypatch)
    if switch == "short":
        handle = 24 + past
        g = broom(handle, size)
        expected = {"all": 0, "slots": 1}
    else:
        handle = _dijkstra_eccentricity(size, size - 1) + past  # a broom has m = n - 1
        g = broom(handle, size - 1 - handle)
        assert g.n == size and handle - past == _dijkstra_eccentricity(g.n, g.m)
        expected = {"all": past, "slots": 1 - past}
    rows = [list(r) for r in all_pairs_distances(g)]
    assert max(rows[0]) == handle
    assert distance_matrix(g).tolist() == rows
    assert runs == expected


@st.composite
def long_graphs(draw):
    """A broom, a ladder (a house for odd n), a cycle with up to three chords
    over 2 or 3 steps, or a cycle with a K_2,b on one edge, on n = 63..65 or
    127..129 vertices.  Vertex 0 lies more than 24 levels and at most B from
    some vertex, so ``distance_matrix`` runs many levels of the degree slots;
    the other vertices are numbered at random, so the slots' degree order is
    too."""
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    kind = draw(st.sampled_from(["broom", "ladder", "chords", "fan"]))
    if kind == "broom":  # vertex 0 ends the handle
        handle = draw(st.integers(26, n - 1))
        edges = list(broom(handle, n - 1 - handle).edges)
    elif kind == "ladder":  # vertex 0 is a corner, n // 2 steps from the far end
        k = n // 2
        edges = [(2 * j, 2 * j + 1) for j in range(k)]
        edges += [(2 * j + s, 2 * j + 2 + s) for j in range(k - 1) for s in (0, 1)]
        if n % 2:
            edges += [(2 * k - 2, 2 * k), (2 * k - 1, 2 * k)]
    elif kind == "chords":  # each chord saves at most 2 of the n // 2 steps
        chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([2, 3])), max_size=3))
        edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
        edges |= {(min(i, (i + s) % n), max(i, (i + s) % n)) for i, s in chords}
        edges = sorted(edges)
    else:  # b >= 8 vertices on the two ends of one cycle edge: two hubs
        b = draw(st.integers(8, n - 52))
        c = n - b
        x = draw(st.integers(0, c - 1))
        edges = [(i, (i + 1) % c) for i in range(c)]
        edges += [(y, c + j) for j in range(b) for y in (x, (x + 1) % c)]
        edges = [(min(u, v), max(u, v)) for u, v in edges]
    label = [0, *draw(st.permutations(range(1, n)))]
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@given(long_graphs())
def test_distance_matrix_degree_slots_on_long_graphs(g):
    with pytest.MonkeyPatch.context() as mp:
        runs = _count_dijkstra(mp)
        d = distance_matrix(g)
    rows = [list(r) for r in all_pairs_distances(g)]
    assert 24 < max(rows[0]) <= _dijkstra_eccentricity(g.n, g.m)
    assert runs == {"all": 0, "slots": 1}
    assert d.tolist() == rows
    # the narrowest dtype that holds the diameter
    assert d.dtype == (np.int8 if max(map(max, rows)) <= 127 else np.int16)


@pytest.mark.parametrize(
    "g", [path_graph(200), gen_house(60), cycle_graph(129), hypercube_graph(7)]
)
def test_distance_matrix_long_graphs_and_dtype(g):
    # path_graph(200) takes Dijkstra's branch (diameter 199), the rest the
    # degree slots; cycle_graph(129) has diameter 64
    d = distance_matrix(g)
    rows = [list(r) for r in all_pairs_distances(g)]
    assert d.tolist() == rows
    assert d.dtype == (np.int8 if max(map(max, rows)) <= 127 else np.int16)


def test_weighted_core_sums_widen_the_int8_distances(monkeypatch):
    # theta*'s core distances are int8, and D B reaches about 10^10 per
    # entry: the product is formed in the weights' dtype, never the matrix's
    g = random_connected_graph(60, 90, seed=5)
    a = tuple(1000 + v for v in range(g.n))
    b = tuple(10**8 + 7 * v for v in range(g.n))
    dtypes = []
    real_sums = cut_method._distance_sums
    monkeypatch.setattr(
        cut_method, "_distance_sums", lambda dist, *rest: dtypes.append(dist.dtype) or real_sums(dist, *rest)
    )
    got = CutEngine(g).values([(a, b), (a, None)])
    assert np.int8 in dtypes
    assert got == [_wiener_double(g, a, b), wiener_weighted(g, a)]


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


def _quotient_edges_reference(g, removed, component_of):
    """The distinct component pairs that the deleted edges join, sorted."""
    pairs = {tuple(sorted((component_of[u], component_of[v])))
             for u, v in (g.edges[i] for i in removed)}
    return sorted((a, b) for a, b in pairs if a != b)


@settings(max_examples=100)
@given(st.one_of(connected_graphs(min_n=1, max_n=14), pendant_graphs()), st.data())
def test_quotient_matches_components_reference(g, data):
    # any edge set, repeats allowed; then the empty and the full set
    removed = data.draw(st.lists(st.integers(0, g.m - 1), max_size=2 * g.m)) if g.m else []
    for f in (removed, [], list(range(g.m))):
        q = quotient(g, f)
        component_of, count, members = _components_reference(g, f)
        assert (q.component_of, q.graph.n, q.members) == (component_of, count, members)
        assert list(q.graph.edges) == _quotient_edges_reference(g, set(f), component_of)
    for bad in (-1, g.m):
        with pytest.raises(GraphError, match=f"unknown edge index {bad}"):
            quotient(g, removed + [bad])


@given(connected_graphs(min_n=2, max_n=12))
def test_is_partial_cube_reuses_given_classes(g):
    classes = theta_star_classes(g)
    assert is_partial_cube(g, classes) == is_partial_cube(g)
