import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from topocut.graph import (
    Graph,
    GraphError,
    ParseError,
    all_pairs_distances,
    build_graph,
    component_labels,
    degree_vector,
    format_edge_list,
    parse_edge_list,
)

from topocut.theta import quotient

from strategies import connected_graphs


def test_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == ((0, 1),)
    assert degree_vector(g) == (1, 1)


def test_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert degree_vector(g) == (1, 2, 1)


def test_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert degree_vector(g) == (2, 2, 2, 2)
    assert g.edges[3] == (0, 3)  # endpoints normalised


def test_adjacency_sorted():
    g = build_graph(4, [(3, 0), (0, 1), (2, 0)])
    assert g.adj[0] == (1, 2, 3)


def test_construction_errors():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(2, [(0, 0)])
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="out of range"):
        build_graph(2, [(0, 2)])
    with pytest.raises(GraphError, match="disconnected"):
        build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_unknown_edge_lookup():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.index_of_edge(2, 1) == g.index_of_edge(1, 2) == 1
    assert g.index_of_edge(1, 0) == g.index_of_edge(0, 1) == 0
    for u, v in ((0, 2), (-1, 0), (0, -1), (2**70, 1), (1, 2**70), (2**64, 0), (-1, -1)):
        with pytest.raises(GraphError, match=rf"^unknown edge \({u}, {v}\)$"):
            g.index_of_edge(u, v)


def test_distances_p3_c4_c5():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert all_pairs_distances(p3)[0][2] == 2
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = all_pairs_distances(c4)
    assert d[0][2] == 2 and d[1][3] == 2
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    d5 = all_pairs_distances(c5)
    assert d5[0] == (0, 1, 2, 2, 1)  # hand BFS around the 5-cycle
    assert max(max(row) for row in d5) == 2


def _floyd_warshall(g: Graph):
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        dk = d[k]
        for i in range(g.n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(g.n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


@given(connected_graphs(max_n=12))
def test_distances_match_floyd_warshall(g):
    assert [list(r) for r in all_pairs_distances(g)] == _floyd_warshall(g)


@given(connected_graphs(max_n=14))
def test_distance_matrix_axioms(g):
    d = all_pairs_distances(g)
    index = set(g.edges)
    for u in range(g.n):
        assert d[u][u] == 0
        for v in range(u + 1, g.n):
            assert d[u][v] == d[v][u] > 0
            assert (d[u][v] == 1) == ((u, v) in index)
            for w in range(g.n):
                assert d[u][v] <= d[u][w] + d[w][v]


def test_distance_matrix_axioms_sixty_vertices():
    from topocut.families import random_connected_graph

    g = random_connected_graph(60, 110, seed=606)
    d = all_pairs_distances(g)
    index = set(g.edges)
    for u in range(60):
        assert d[u][u] == 0
        for v in range(u + 1, 60):
            assert d[u][v] == d[v][u] > 0
            assert (d[u][v] == 1) == ((u, v) in index)
    for u, v in g.edges:
        for w in range(60):
            assert abs(d[u][w] - d[v][w]) <= 1  # edge form of the triangle bound


@given(connected_graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(degree_vector(g)) == 2 * g.m


def test_components_c4_horizontal_pair():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    q = quotient(c4, [c4.index_of_edge(0, 1), c4.index_of_edge(2, 3)])
    assert q.graph.n == 2
    assert q.members == ((0, 3), (1, 2))
    assert q.component_of == (0, 1, 1, 0)


def test_components_trivial_cases():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert quotient(p3, []).graph.n == 1
    full = quotient(p3, [0, 1])
    assert full.graph.n == 3
    assert full.members == ((0,), (1,), (2,))


def test_components_unknown_edge():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="unknown edge"):
        quotient(p3, [5])


@given(connected_graphs())
def test_components_empty_deletion_single(g):
    assert quotient(g, []).graph.n == 1


def union_find_labels(n, eu, ev):
    """Component count and labels by a pure-Python union-find, numbered by
    smallest vertex."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(eu, ev):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    number = {}
    labels = [number.setdefault(find(v), len(number)) for v in range(n)]
    return len(number), labels


def check_component_labels(n, eu, ev):
    count, labels = component_labels(n, np.asarray(eu, dtype=np.int64),
                                     np.asarray(ev, dtype=np.int64))
    assert labels.dtype == np.int64
    assert (count, labels.tolist()) == union_find_labels(n, list(eu), list(ev))
    # numbered by smallest vertex: the first vertex of each label ascends
    assert (np.diff(np.unique(labels, return_index=True)[1]) > 0).all()


@st.composite
def multigraphs(draw):
    """Vertex counts and edge lists with loops, repeated edges and isolated
    vertices."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return n, draw(st.permutations(edges))


@given(multigraphs())
@example((1, []))
@example((7, []))
@example((3, [(2, 2), (1, 2), (2, 1), (1, 2)]))
def test_component_labels_match_union_find(case):
    n, edges = case
    check_component_labels(n, [u for u, _ in edges], [v for _, v in edges])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 10**4),
    st.sampled_from(["sorted", "reversed", "permuted", "relabelled"]),
    st.integers(0, 2**32 - 1),
)
@example(10**4, "sorted", 0)
@example(10**4, "reversed", 0)
def test_component_labels_on_paths(n, order, seed):
    # sorted and reversed edge orders make the longest pointer chains
    rng = np.random.default_rng(seed)
    step = np.arange(n - 1)
    if order == "reversed":
        step = step[::-1]
    elif order == "permuted":
        step = rng.permutation(step)
    vertex = rng.permutation(n) if order == "relabelled" else np.arange(n)
    eu, ev = vertex[step], vertex[step + 1]
    flip = rng.random(n - 1) < 0.5 if order != "sorted" else np.zeros(n - 1, dtype=bool)
    eu, ev = np.where(flip, ev, eu), np.where(flip, eu, ev)
    check_component_labels(n, eu.tolist(), ev.tolist())


@given(st.integers(1, 300), st.data())
def test_component_labels_on_stars(n, data):
    centre = data.draw(st.integers(0, n - 1))
    leaves = data.draw(st.permutations([v for v in range(n) if v != centre]))
    outward = data.draw(st.lists(st.booleans(), min_size=len(leaves), max_size=len(leaves)))
    edges = [(centre, v) if out else (v, centre) for v, out in zip(leaves, outward)]
    check_component_labels(n, [u for u, _ in edges], [v for _, v in edges])


def test_parse_edge_list_with_header():
    g = parse_edge_list("# comment\n3 2\n0 1\n1 2\n")
    assert (g.n, g.m) == (3, 2)


def test_parse_edge_list_without_header():
    g = parse_edge_list("0 1\n1 2\n2 3\n")
    assert (g.n, g.m) == (4, 3)


@pytest.mark.parametrize("tail", ["", "\n# note\n"])
def test_parse_edge_list_header_flag(tail):
    # "3 2" fits as a header, so the default reads a 3-vertex path; read as
    # an edge it makes three edges on 4 vertices (the array and the line
    # reader alike: a comment sends the text down the line reader)
    text = "3 2\n0 1\n1 2\n" + tail
    for header, want in ((None, (3, 2)), (True, (3, 2)), (False, (4, 3))):
        g = parse_edge_list(text, header)
        assert (g.n, g.m) == want


@pytest.mark.parametrize(("text", "line"), [
    ("2 3\n0 1\n1 2\n", 1), ("# c\n\n3 1\n0 1\n1 2\n", 3), ("0 2\n0 1\n1 2\n", 1),
])
def test_parse_edge_list_header_that_does_not_fit(text, line):
    with pytest.raises(ParseError, match=f"line {line}: header"):
        parse_edge_list(text, header=True)
    assert parse_edge_list(text, header=False).m == 3


def test_parse_single_vertex_header():
    g = parse_edge_list("1 0\n")
    assert (g.n, g.m) == (1, 0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\n0 x\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\n1 0\n")  # duplicate
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("3 2\n0 5\n0 1\n")  # out of header range
    with pytest.raises(ParseError, match="no edges"):
        parse_edge_list("# nothing\n")


@given(connected_graphs())
def test_edge_list_round_trip(g):
    h = parse_edge_list(format_edge_list(g))
    assert h.n == g.n and h.edges == g.edges
