import pytest
from hypothesis import given

from topocut.cut_method import CutEngine
from topocut.graph import Graph, all_pairs_distances, build_graph
from topocut.indices import gutman, wiener, wiener_weighted
from topocut.hamming import (
    NotPartialHammingError,
    gutman_exact_hamming,
    gutman_lower_bound,
    is_partial_hamming,
    weighted_wiener_lower_bound,
)
from topocut.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    gen_house,
    hypercube_graph,
    phe6_placement,
)
from topocut.phenylene import build_phenylene

from strategies import connected_graphs, trees, weighted_graphs
from test_engine import engine_labels


def embedding(g):
    """The canonical embedding into the product of the theta*-class
    quotients, read from the cut engine: the quotient graphs and each
    vertex's coordinates, its component of g minus each class."""
    engine = CutEngine(g)
    quotients = [Graph(size, engine.quotient_edges(i)) for i, size in enumerate(engine.sizes)]
    return quotients, tuple(zip(*(labels.tolist() for labels in engine_labels(engine))))


def test_canonical_embedding_k2():
    quotients, coordinates = embedding(build_graph(2, [(0, 1)]))
    assert len(quotients) == 1
    assert coordinates == ((0,), (1,))


def test_canonical_embedding_c6():
    quotients, coordinates = embedding(cycle_graph(6))
    assert len(quotients) == 3
    assert all(q.n == 2 for q in quotients)
    assert len(set(coordinates)) == 6


def test_canonical_embedding_c5():
    quotients, _ = embedding(cycle_graph(5))
    assert len(quotients) == 1
    assert quotients[0].n == 5


@given(connected_graphs(min_n=2, max_n=10))
def test_embedding_is_isometric(g):
    quotients, coordinates = embedding(g)
    d = all_pairs_distances(g)
    dq = [all_pairs_distances(q) for q in quotients]
    for u in range(g.n):
        cu = coordinates[u]
        for v in range(u + 1, g.n):
            cv = coordinates[v]
            assert d[u][v] == sum(dm[x][y] for dm, x, y in zip(dq, cu, cv))


@given(connected_graphs(min_n=2, max_n=10))
def test_embedding_is_irredundant(g):
    quotients, coordinates = embedding(g)
    for i, q in enumerate(quotients):
        used = {c[i] for c in coordinates}
        assert q.n >= 2
        assert used == set(range(q.n))


def test_is_partial_hamming_fixed_cases():
    assert is_partial_hamming(cycle_graph(6))
    assert is_partial_hamming(hypercube_graph(3))
    assert is_partial_hamming(complete_graph(5))
    assert is_partial_hamming(build_phenylene(phe6_placement()).graph)
    assert not is_partial_hamming(cycle_graph(5))
    assert not is_partial_hamming(complete_bipartite_graph(2, 3))
    for n in (2, 3, 7):
        assert is_partial_hamming(gen_house(n))


@given(trees(min_n=2, max_n=10))
def test_trees_are_partial_hamming(t):
    assert is_partial_hamming(t)


def test_bound_examples():
    assert weighted_wiener_lower_bound(cycle_graph(6), (1,) * 6) == 27 == wiener(
        cycle_graph(6)
    )
    assert weighted_wiener_lower_bound(cycle_graph(5), (1,) * 5) == 10 < 15
    for n in (2, 3, 5):
        kn = complete_graph(n)
        assert weighted_wiener_lower_bound(kn, (1,) * n) == n * (n - 1) // 2


def test_gutman_bound_examples():
    assert gutman_lower_bound(gen_house(2)) == 77
    assert gutman_lower_bound(cycle_graph(4)) == 32 == gutman(cycle_graph(4))
    assert gutman_lower_bound(cycle_graph(5)) == 40 < 60 == gutman(cycle_graph(5))


@given(weighted_graphs(min_n=2, max_n=10))
def test_bound_below_oracle_with_equality_iff_hamming(gw):
    g, w = gw
    bound = weighted_wiener_lower_bound(g, w)
    exact = wiener_weighted(g, w)
    assert bound <= exact
    assert (bound == exact) == is_partial_hamming(g)


def test_gutman_exact_hamming_examples():
    for n in range(2, 21):
        hn = gen_house(n)
        assert gutman_exact_hamming(hn) == 6 * n**3 + 9 * n**2 - 4 * n + 1
    q3 = hypercube_graph(3)
    assert gutman_exact_hamming(q3) == gutman(q3)
    assert gutman_exact_hamming(build_phenylene(phe6_placement()).graph) == 22856


def test_gutman_exact_hamming_rejects_c5():
    with pytest.raises(NotPartialHammingError):
        gutman_exact_hamming(cycle_graph(5))


@given(connected_graphs(min_n=2, max_n=10))
def test_hamming_distance_equals_graph_distance(g):
    if not is_partial_hamming(g):
        return
    _, coordinates = embedding(g)
    d = all_pairs_distances(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            differ = sum(x != y for x, y in zip(coordinates[u], coordinates[v]))
            assert differ == d[u][v]
