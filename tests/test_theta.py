from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topocut.cut_method as cut_method
import topocut.graph as graph_module
import topocut.theta as theta

from topocut.cut_method import CutEngine, is_partial_cube
from topocut.graph import Graph, all_pairs_distances, component_labels, distance_matrix
from topocut.theta import (
    PartitionError,
    ThetaClasses,
    quotient,
    theta_star_classes,
    validate_coarser,
)
from topocut.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    gen_house,
    gen_phenylene_chain,
    hypercube_graph,
    path_graph,
    random_connected_graph,
    windmill_graph,
)
from topocut.phenylene import build_benzenoid, build_phenylene

from strategies import connected_graphs, kink_patterns, pendant_graphs, trees


def theta_related(g, d, e1, e2):
    """The Djokovic-Winkler relation of two edges, given the distance
    matrix: d(u1,u2) + d(v1,v2) != d(u1,v2) + d(v1,u2)."""
    g.index_of_edge(*e1)
    g.index_of_edge(*e2)
    u1, v1 = min(e1), max(e1)
    u2, v2 = min(e2), max(e2)
    return d[u1][u2] + d[v1][v2] != d[u1][v2] + d[v1][u2]


def _theta_closure_oracle(g):
    """Independent theta* computation: BFS over the pairwise relation."""
    d = all_pairs_distances(g)
    related = [
        [theta_related(g, d, g.edges[i], g.edges[j]) for j in range(g.m)]
        for i in range(g.m)
    ]
    seen = [False] * g.m
    classes = []
    for start in range(g.m):
        if seen[start]:
            continue
        group = [start]
        seen[start] = True
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(g.m):
                if related[i][j] and not seen[j]:
                    seen[j] = True
                    group.append(j)
                    queue.append(j)
        classes.append(tuple(sorted(group)))
    return tuple(sorted(classes))


def test_theta_reflexive_on_any_edge():
    g = cycle_graph(4)
    d = all_pairs_distances(g)
    for e in g.edges:
        assert theta_related(g, d, e, e)


def test_c4_opposite_edges_related():
    g = cycle_graph(4)
    d = all_pairs_distances(g)
    assert theta_related(g, d, (0, 1), (2, 3))
    assert not theta_related(g, d, (0, 1), (1, 2))
    class_of = theta_star_classes(g).class_of
    index = g.index_of_edge
    assert class_of[index(0, 1)] == class_of[index(2, 3)] != class_of[index(1, 2)]


def test_p3_edges_unrelated():
    g = path_graph(3)
    d = all_pairs_distances(g)
    assert not theta_related(g, d, (0, 1), (1, 2))
    assert theta_star_classes(g).classes == ((0,), (1,))


def test_theta_unknown_edge():
    g = path_graph(3)
    d = all_pairs_distances(g)
    with pytest.raises(Exception, match="unknown edge"):
        theta_related(g, d, (0, 2), (0, 1))


@given(connected_graphs(min_n=2, max_n=10))
def test_theta_symmetric(g):
    d = all_pairs_distances(g)
    for i in range(g.m):
        for j in range(g.m):
            assert theta_related(g, d, g.edges[i], g.edges[j]) == theta_related(
                g, d, g.edges[j], g.edges[i]
            )


def test_theta_reflexive_symmetric_forty_vertices():
    from topocut.families import random_connected_graph

    g = random_connected_graph(40, 75, seed=4040)
    d = all_pairs_distances(g)
    for i in range(g.m):
        assert theta_related(g, d, g.edges[i], g.edges[i])
        for j in range(i + 1, g.m):
            assert theta_related(g, d, g.edges[i], g.edges[j]) == theta_related(
                g, d, g.edges[j], g.edges[i]
            )


def _theta_star_pairwise(g):
    """Theta* by the pairwise O(m^2) test of every edge pair merged in a
    union-find (the former implementation), numbered by smallest edge."""
    d = all_pairs_distances(g)
    parent = list(range(g.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (u1, v1) in enumerate(g.edges):
        for j in range(i + 1, g.m):
            u2, v2 = g.edges[j]
            if d[u1][u2] + d[v1][v2] != d[u1][v2] + d[v1][u2]:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(g.m):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(sorted((tuple(c) for c in groups.values()), key=lambda c: c[0]))
    class_of = [0] * g.m
    for ci, cls in enumerate(classes):
        for e in cls:
            class_of[e] = ci
    return ThetaClasses(classes, tuple(class_of))


@given(connected_graphs(min_n=2, max_n=10))
def test_classes_match_independent_closure(g):
    assert theta_star_classes(g).classes == _theta_closure_oracle(g)


@given(connected_graphs(min_n=1, max_n=14))
def test_array_theta_star_equals_pairwise_loop(g):
    assert theta_star_classes(g) == _theta_star_pairwise(g)
    # one tree edge per block: the classes are merged across blocks
    with mock.patch.object(theta, "_RELATION_BLOCK", 1):
        assert theta_star_classes(g) == _theta_star_pairwise(g)


@pytest.mark.parametrize(
    "g",
    [
        hypercube_graph(5),
        gen_house(30),
        complete_graph(9),
        windmill_graph(6),
        random_connected_graph(80, 120, seed=8),
        random_connected_graph(60, 150, seed=9),
        random_connected_graph(120, 119, seed=10),
        random_connected_graph(300, 450, seed=11),
    ],
)
def test_array_theta_star_equals_pairwise_loop_larger(g):
    assert theta_star_classes(g) == _theta_star_pairwise(g)


@settings(max_examples=200)
@given(pendant_graphs())
def test_theta_star_with_pendant_trees_equals_pairwise_loop(g):
    # the peeled edges are singletons; theta* runs on the 2-core alone
    assert theta_star_classes(g) == _theta_star_pairwise(g)


def _ladder(k):
    """The 2 x k grid, diameter k: vertex 0 is a corner."""
    edges = [(2 * j, 2 * j + 1) for j in range(k)]
    edges += [(2 * j + s, 2 * j + 2 + s) for j in range(k - 1) for s in (0, 1)]
    return Graph(2 * k, edges)


@pytest.mark.parametrize(
    "g, diameter",
    [
        (path_graph(128), 127),  # B = 191
        (path_graph(129), 128),  # e = B = 128
        (cycle_graph(255), 127),
        (cycle_graph(256), 128),
        (_ladder(127), 127),
        (_ladder(128), 128),
    ],
    ids=["path128", "path129", "cycle255", "cycle256", "ladder127", "ladder128"],
)
def test_distances_on_each_side_of_the_int8_limit(g, diameter, monkeypatch):
    # every graph takes the bit-packed search, whose level count picks the dtype
    slots = []
    real_slots = graph_module._slot_spread
    monkeypatch.setattr(graph_module, "_slot_spread", lambda *a: slots.append(1) or real_slots(*a))
    d = distance_matrix(g)
    assert slots == [1]
    assert d.tolist() == [list(r) for r in all_pairs_distances(g)]
    assert int(d.max()) == diameter
    assert d.dtype == (np.int8 if diameter <= 127 else np.int16)
    assert theta_star_classes(g) == _theta_star_pairwise(g)


def test_feder_hands_on_only_unsettled_pairs(monkeypatch):
    # the pairs that reach the labelling are a small share of the related
    # (tree edge, edge) pairs: the first block settles almost every class
    g = random_connected_graph(300, 450, seed=11)
    d = distance_matrix(g)
    u, v = g.edge_array.T
    into = {}  # the BFS tree of _feder_links: each vertex's first edge from one level up
    for e, (a, b) in enumerate(g.edges):
        if d[0, a] != d[0, b]:
            into.setdefault(a if d[0, a] > d[0, b] else b, e)
    x, y = g.edge_array[sorted(into.values())].T
    delta = d[x].astype(int) - d[y]
    related = int(np.count_nonzero(delta[:, u] != delta[:, v]))
    handed = []
    real_labels = theta.component_labels
    monkeypatch.setattr(
        theta, "component_labels", lambda n, a, b: handed.append(len(a)) or real_labels(n, a, b)
    )
    links = theta._feder_links(g.edge_array, d)
    assert 0 < sum(handed) < related / 4
    expected = _theta_star_pairwise(g)
    assert np.unique(links, return_inverse=True)[1].tolist() == list(expected.class_of)
    # blocks of one tree edge, and blocks that only their growth bounds
    for block in (1, len(x) * g.m + 1):
        monkeypatch.setattr(theta, "_RELATION_BLOCK", block)
        assert theta_star_classes(g) == expected


class _CountingRows(np.ndarray):
    """A distance matrix that counts its row gathers: ``_feder_links`` takes
    the rows of a relation block's tree edges twice, d[x] and d[y]."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            _CountingRows.gathers += 1
        return np.asarray(super().__getitem__(key))


def _relation_blocks(g) -> int:
    """The relation blocks of ``_feder_links`` over all n - 1 tree edges."""
    lo, step, blocks = 0, theta._FIRST_BLOCK, 0
    while lo < g.n - 1:
        lo = min(lo + step, lo + max(1, theta._RELATION_BLOCK // g.m), g.n - 1)
        step, blocks = step * theta._BLOCK_GROWTH, blocks + 1
    return blocks


def _core_graph(g):
    peel = g.peel
    rank = np.empty(g.n, dtype=np.int64)
    rank[peel.core] = np.arange(peel.core.size)
    return Graph(int(peel.core.size), rank[g.edge_array[peel.core_edges]])


@pytest.mark.parametrize(
    "g, fewer",
    [
        (cycle_graph(31), False),
        (cycle_graph(401), False),
        (complete_graph(12), False),
        (complete_graph(40), False),
        (_core_graph(random_connected_graph(300, 900, seed=1)), True),
        (_core_graph(random_connected_graph(300, 900, seed=2)), True),
    ],
)
def test_feder_stops_at_one_class(g, fewer, monkeypatch):
    # single-class cores: once every link is edge 0 the closure stops, and
    # the one class is still the pairwise closure's.  A random core gets
    # there before its last relation block; an odd cycle or K_n, whose
    # last tree edges hold the last merges, only at it.
    monkeypatch.setattr(_CountingRows, "gathers", 0)
    links = theta._feder_links(g.edge_array, distance_matrix(g).view(_CountingRows))
    assert not links.any()
    assert theta_star_classes(g) == _theta_star_pairwise(g)
    assert len(_theta_star_pairwise(g).classes) == 1
    blocks = _CountingRows.gathers // 2
    assert (blocks < _relation_blocks(g)) == fewer and blocks <= _relation_blocks(g)


@given(st.one_of(connected_graphs(min_n=1, max_n=14), pendant_graphs()))
def test_theta_star_classes_partition_the_edges(g):
    classes = theta_star_classes(g)
    edges = sorted(e for cls in classes.classes for e in cls)
    assert edges == list(range(g.m))  # no edge repeated, none missing
    assert all(list(cls) == sorted(cls) for cls in classes.classes)
    assert [cls[0] for cls in classes.classes] == sorted(cls[0] for cls in classes.classes)
    assert all(classes.class_of[e] == i for i, cls in enumerate(classes.classes) for e in cls)


def _count_distance_matrices(monkeypatch) -> list:
    """Record the vertex count of every graph given to ``distance_matrix``."""
    sizes = []
    real = graph_module.distance_matrix

    def spy(g):
        sizes.append(g.n)
        return real(g)

    for module in (graph_module, theta, cut_method):
        monkeypatch.setattr(module, "distance_matrix", spy)
    return sizes


def test_pendant_trees_need_no_distances(monkeypatch):
    sizes = _count_distance_matrices(monkeypatch)
    for g in (random_connected_graph(300, seed=4), path_graph(40), Graph(1, []), path_graph(2)):
        assert theta_star_classes(g).classes == tuple((e,) for e in range(g.m))
        CutEngine(g).values([((1,) * g.n, None)])
    assert sizes == []
    # an odd cycle with paths hanging: theta* sees the 9-vertex core only,
    # and the one non-complete quotient is found from theta*'s core matrix
    edges = [(v, (v + 1) % 9) for v in range(9)]
    edges += [(0, 9), (9, 10), (10, 11), (4, 12), (12, 13), (12, 14)]
    g = Graph(15, edges)
    CutEngine(g).values([((1,) * g.n, None)])
    assert sizes == [9]


@given(trees(min_n=2, max_n=12))
def test_tree_classes_are_singletons(g):
    classes = theta_star_classes(g)
    assert classes.classes == tuple((i,) for i in range(g.m))
    for cls in classes.classes:
        q = quotient(g, cls)
        assert q.graph.n == 2 and q.graph.m == 1


def test_c5_single_class():
    assert theta_star_classes(cycle_graph(5)).classes == ((0, 1, 2, 3, 4),)


def test_c6_opposite_pairs():
    assert theta_star_classes(cycle_graph(6)).classes == ((0, 3), (1, 4), (2, 5))


def test_validate_coarser_accepts_finest_and_coarsest():
    g = cycle_graph(6)
    classes = theta_star_classes(g)
    assert validate_coarser(g, classes.classes).blocks == ((0, 3), (1, 4), (2, 5))
    assert validate_coarser(g, [range(g.m)]).blocks == ((0, 1, 2, 3, 4, 5),)


def test_validate_coarser_rejects_split_class():
    g = cycle_graph(6)
    with pytest.raises(PartitionError, match="split across blocks"):
        validate_coarser(g, [[0], [1, 2, 3, 4, 5]])


def test_validate_coarser_rejects_non_partition():
    g = cycle_graph(6)
    with pytest.raises(PartitionError, match="partition"):
        validate_coarser(g, [[0, 3], [1, 4]])  # misses a class
    with pytest.raises(PartitionError, match="partition"):
        validate_coarser(g, [[0, 3], [0, 3], [1, 4], [2, 5]])
    with pytest.raises(PartitionError, match="unknown edge"):
        validate_coarser(g, [[0, 3, 99], [1, 4], [2, 5]])


@pytest.mark.parametrize("blocks, message", [
    # the first index out of range, in block order
    ([[0, 3], [1, 4, -2, 7], [2, 5, 99]], "unknown edge index -2"),
    ([[0, 3, 6, 9], [1, 4], [2, 5]], "unknown edge index 6"),
    # an edge in two blocks
    ([[0, 3], [0, 1, 4], [2, 5]], r"blocks do not partition the edge set \(7 entries, 6 distinct, 6 edges\)"),
    # an edge in none
    ([[0, 3], [1, 4], [2]], r"blocks do not partition the edge set \(5 entries, 5 distinct, 6 edges\)"),
])
def test_partition_check_messages(blocks, message):
    # validate_coarser runs the partition check before theta*
    with pytest.raises(PartitionError, match=f"^{message}$"):
        validate_coarser(cycle_graph(6), blocks)


def test_validate_coarser_rejects_a_repeated_index():
    # the blocks are checked as given: a repeated index is no partition, as
    # the cut engine's own check of the same blocks says
    g = cycle_graph(6)
    message = r"^blocks do not partition the edge set \(7 entries, 6 distinct, 6 edges\)$"
    with pytest.raises(PartitionError, match=message):
        validate_coarser(g, [[0, 0, 3], [1, 4], [2, 5]])
    with pytest.raises(PartitionError, match=message):
        CutEngine(g, theta.EdgePartition(((0, 0, 3), (1, 4), (2, 5))))


def _validate_by_edges(g, blocks, classes):
    """The whole-class check as a loop over each class's edges."""
    block_of = {e: bi for bi, block in enumerate(blocks) for e in block}
    for ci, cls in enumerate(classes.classes):
        owners = {block_of[e] for e in cls}
        if len(owners) > 1:
            edges = ", ".join(f"{g.edges[e][0]}-{g.edges[e][1]}" for e in cls)
            return f"theta*-class {ci} ({edges}) is split across blocks {sorted(owners)}"
    return theta.EdgePartition(tuple(tuple(sorted(b)) for b in blocks))


@settings(max_examples=60)
@given(connected_graphs(min_n=2, max_n=10), st.data())
def test_whole_class_check_on_labels_matches_the_edge_loop(g, data):
    # blocks drawn per class (whole) or per edge (mostly split), in any order,
    # checked with theta* run inside and with the classes given
    classes = theta_star_classes(g)
    if data.draw(st.booleans()):
        owner = data.draw(st.lists(st.integers(0, 2), min_size=len(classes), max_size=len(classes)))
        owner = [owner[c] for c in classes.class_of]
    else:
        owner = data.draw(st.lists(st.integers(0, 2), min_size=g.m, max_size=g.m))
    blocks = [[e for e in range(g.m) if owner[e] == b] for b in range(3)]
    blocks = [data.draw(st.permutations(block)) for block in blocks]
    want = _validate_by_edges(g, blocks, classes)
    for given_classes in (None, classes):
        if isinstance(want, str):
            with pytest.raises(PartitionError) as err:
                validate_coarser(g, blocks, given_classes)
            assert str(err.value) == want
        else:
            assert validate_coarser(g, blocks, given_classes) == want


def test_quotient_c6_by_one_class():
    g = cycle_graph(6)
    q = quotient(g, [0, 3])
    assert q.graph.n == 2 and q.graph.m == 1
    assert sorted(len(ms) for ms in q.members) == [3, 3]


def test_quotient_by_empty_set_is_single_vertex():
    g = cycle_graph(6)
    q = quotient(g, [])
    assert q.graph.n == 1 and q.graph.m == 0


def test_quotient_c5_by_all_edges_is_c5():
    g = cycle_graph(5)
    q = quotient(g, [0, 1, 2, 3, 4])
    assert q.graph.n == 5 and q.graph.m == 5
    assert all(len(ms) == 1 for ms in q.members)
    assert sorted(len(a) for a in q.graph.adj) == [2] * 5


@given(connected_graphs(min_n=2, max_n=10))
def test_quotient_of_connected_is_connected(g):
    for cls in theta_star_classes(g).classes:
        q = quotient(g, cls).graph
        assert component_labels(q.n, *q.edge_array.T)[0] == 1


def test_is_partial_cube_fixed_cases():
    assert is_partial_cube(cycle_graph(6))
    assert not is_partial_cube(cycle_graph(5))
    assert is_partial_cube(hypercube_graph(3))
    assert not is_partial_cube(complete_bipartite_graph(2, 3))
    assert is_partial_cube(Graph(1, []))


def _is_bipartite(g):
    colour = [-1] * g.n
    colour[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if colour[v] < 0:
                colour[v] = 1 - colour[u]
                stack.append(v)
            elif colour[v] == colour[u]:
                return False
    return True


def partial_cube_reference(g):
    """Bipartite, and every theta*-class pairwise theta-related: the
    former bipartite DFS plus delta-matrix test."""
    if not _is_bipartite(g):
        return False
    d = distance_matrix(g)
    ends = g.edge_array
    for cls in theta_star_classes(g).classes:
        u, v = ends[list(cls)].T
        delta = d[u] - d[v]
        if not (delta[:, u] != delta[:, v]).all():
            return False
    return True


@st.composite
def bipartite_graphs(draw, max_side=7):
    """Random connected bipartite graphs with cycles on the sides 0..p-1 and
    p..p+q-1: the edge (0, p), each other vertex joined to an earlier one
    across, in a random order, then any further cross edges."""
    p, q = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    side = [v < p for v in range(p + q)]
    placed = [0, p]
    edges = {(0, p)}
    for v in draw(st.permutations([v for v in range(1, p + q) if v != p])):
        u = draw(st.sampled_from([u for u in placed if side[u] != side[v]]))
        edges.add((min(u, v), max(u, v)))
        placed.append(v)
    cross = [(u, v) for u in range(p) for v in range(p, p + q)]
    edges |= set(draw(st.lists(st.sampled_from(cross), unique=True, max_size=p + q)))
    return Graph(p + q, sorted(edges))


@st.composite
def phenylene_graphs(draw):
    """Phenylene and benzenoid chains of up to five hexagons."""
    placement = gen_phenylene_chain(*draw(kink_patterns(max_h=5)))
    return draw(st.sampled_from([build_phenylene(placement).graph, build_benzenoid(placement)]))


@settings(max_examples=150)
@given(st.one_of(connected_graphs(min_n=1, max_n=12), bipartite_graphs(), phenylene_graphs()))
def test_is_partial_cube_matches_bipartite_delta_reference(g):
    assert is_partial_cube(g) == partial_cube_reference(g)


def test_q3_has_three_classes_of_four():
    classes = theta_star_classes(hypercube_graph(3))
    assert sorted(len(c) for c in classes.classes) == [4, 4, 4]


@given(trees(min_n=2, max_n=10))
def test_trees_are_partial_cubes(g):
    assert is_partial_cube(g)


@given(connected_graphs(min_n=2, max_n=10))
def test_partial_cube_classes_leave_two_components(g):
    classes = theta_star_classes(g)
    if not is_partial_cube(g, classes):
        return
    for cls in classes.classes:
        assert quotient(g, cls).graph.n == 2


def test_odd_cycle_edges_single_class():
    for n in (3, 5, 7, 9):
        g = cycle_graph(n)
        assert len(theta_star_classes(g).classes) == 1
