import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import topocut.exact as exact_module
import topocut.phenylene as phenylene_module
from topocut import cli, solve
from topocut.exact import (
    Weights, _euler_tour, _exact_dtype, _narrowest_dtype, _tree_sums, scale_weights, weights_of,
)
from topocut.cut_method import INDEX_TERMS, CutEngine, column_values, index_pairs

from topocut.graph import (
    Graph,
    build_graph,
    component_labels,
    degree_vector,
)
from topocut.indices import (
    DoubleWeightedGraph,
    degree_distance,
    gutman,
    wiener_double,
    wiener_weighted,
)
from topocut.cut_method import is_partial_cube
from topocut.theta import EdgePartition, _quotient, theta_star_classes, validate_coarser
from topocut.phenylene import (
    CORNER_OFFSETS,
    BenzenoidPlacement,
    NotATreeError,
    NEIGHBOR_OFFSETS,
    PlacementError,
    _DEGREE_SUMS,
    _HALF_OF,
    _Runs,
    _cell_corners,
    _component_sums,
    _degree_sums,
    _later_neighbours,
    _sorted_runs,
    _squeeze_arrays,
    _validated_dual,
    build_benzenoid,
    build_phenylene,
    dd_gut_via_squeeze,
    dd_gut_via_trees,
    parse_placement,
    format_placement,
    quotient_trees,
    tree_block_matrix,
    tree_wiener_double_linear,
    tree_wiener_linear,
)
from topocut.families import (
    cycle_graph,
    gen_phenylene_chain,
    parse_kinks,
    path_graph,
    phe6_placement,
)

from strategies import kink_patterns, trees
from test_engine import _components_reference, _quotient_edges_reference

RING6 = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def chain_placements(max_h=5):
    out = [gen_phenylene_chain(h) for h in range(1, max_h + 1)]
    out.append(gen_phenylene_chain(4, "A+L"))
    out.append(gen_phenylene_chain(5, "A+A-L"))
    out.append(phe6_placement())
    return out


def all_test_placements():
    """Every generated placement up to eight hexagons used by the route tests."""
    out = chain_placements(8)
    out.append(gen_phenylene_chain(7, "LA+A+LA-"))
    out.append(gen_phenylene_chain(8, "A-A+A-LA+L"))
    return out


def test_single_cell_is_benzene():
    benz = build_benzenoid([(0, 0)])
    assert (benz.graph.n, benz.graph.m) == (6, 6)
    assert degree_vector(benz.graph) == (2,) * 6
    assert (benz.inner_dual.n, benz.inner_dual.m) == (1, 0)


def test_two_cells_is_naphthalene():
    benz = build_benzenoid([(0, 0), (1, 0)])
    assert (benz.graph.n, benz.graph.m) == (10, 11)
    assert (benz.inner_dual.n, benz.inner_dual.m) == (2, 1)


def test_phe6_inner_dual_shape():
    benz = build_benzenoid(phe6_placement())
    dual = benz.inner_dual
    assert dual.n == 6 and dual.m == 5
    assert sorted(len(a) for a in dual.adj) == [1, 1, 1, 2, 2, 3]
    branch = max(range(6), key=lambda v: len(dual.adj[v]))
    # two pendant neighbours at the branch vertex: path of length 1, 1, and 3
    lengths = []
    for start in dual.adj[branch]:
        prev, cur, ln = branch, start, 1
        while True:
            nxt = [x for x in dual.adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    assert sorted(lengths) == [1, 1, 3]


def test_placement_validation_errors():
    with pytest.raises(PlacementError, match="duplicate"):
        BenzenoidPlacement.of([(0, 0), (0, 0)])
    with pytest.raises(PlacementError, match="no cells"):
        BenzenoidPlacement.of([])
    with pytest.raises(PlacementError, match="internal lattice vertex"):
        build_benzenoid([(0, 0), (1, 0), (0, 1)])  # three mutually adjacent cells
    with pytest.raises(PlacementError, match="not a tree"):
        build_benzenoid(RING6)  # six cells around an empty centre
    with pytest.raises(PlacementError, match="connected"):
        build_benzenoid([(0, 0), (3, 3)])


def test_phenylene_counts():
    ph1 = build_phenylene([(0, 0)])
    assert (ph1.graph.n, ph1.graph.m) == (6, 6)
    ph2 = build_phenylene([(0, 0), (1, 0)])
    assert (ph2.graph.n, ph2.graph.m) == (12, 14)
    ph6 = build_phenylene(phe6_placement())
    assert (ph6.graph.n, ph6.graph.m) == (36, 46)


@given(kink_patterns(max_h=6))
def test_phenylene_size_formula(hp):
    h, pattern = hp
    try:
        placement = gen_phenylene_chain(h, pattern)
    except PlacementError:
        assume(False)
    ph = build_phenylene(placement)
    assert ph.graph.n == 6 * h
    assert ph.graph.m == 8 * h - 2
    assert int(np.sum(ph.edge_class == 4)) == 2 * (h - 1)


def test_phenylenes_and_benzenoids_are_partial_cubes():
    for placement in chain_placements(4):
        assert is_partial_cube(build_phenylene(placement).graph)
        assert is_partial_cube(build_benzenoid(placement).graph)


def test_structural_classes_are_coarser():
    for placement in chain_placements(4):
        ph = build_phenylene(placement)
        blocks = [
            np.flatnonzero(ph.edge_class == c).tolist() for c in (1, 2, 3, 4)
        ]
        validate_coarser(ph.graph, [b for b in blocks if b])
        benz = build_benzenoid(placement)
        bblocks = [np.flatnonzero(benz._direction == c).tolist() for c in (1, 2, 3)]
        validate_coarser(benz.graph, [b for b in bblocks if b])


def test_squeeze_weights_values():
    benz = build_benzenoid(phe6_placement())
    degs_b = degree_vector(benz.graph)
    degs_t = degree_vector(benz.inner_dual)
    w1, w2, w3, w4 = _squeeze_arrays(np.array(degs_b), np.array(degs_t))
    for u, d in enumerate(degs_b):
        assert w1[u] == {2: 2, 3: 6}[d]
        assert w2[u] == {2: 1, 3: 2}[d]
    for x, d in enumerate(degs_t):
        assert w3[x] == {1: 14, 2: 16, 3: 18}[d]
        assert w4[x] == 6


def test_dd_gut_via_squeeze_examples():
    assert dd_gut_via_squeeze([(0, 0)]) == (108, 108)
    assert dd_gut_via_squeeze(phe6_placement()) == (18384, 22856)
    ph2 = build_phenylene([(0, 0), (1, 0)])
    assert dd_gut_via_squeeze([(0, 0), (1, 0)]) == (
        degree_distance(ph2.graph),
        gutman(ph2.graph),
    )


def test_quotient_trees_single_cell():
    ph = build_phenylene([(0, 0)])
    t1, t2, t3, t4 = quotient_trees(ph)
    for t in (t1, t2, t3):
        assert (t.tree.n, t.a, t.b) == (2, (6, 6), (3, 3))
    assert (t4.tree.n, t4.a, t4.b) == (1, (12,), (6,))


def test_quotient_trees_two_cell_chain():
    ph = build_phenylene([(0, 0), (1, 0)])
    t4 = quotient_trees(ph)[3]
    assert t4.tree.n == 2 and t4.a == (14, 14) and t4.b == (6, 6)


def test_phe6_per_tree_values():
    ph = build_phenylene(phe6_placement())
    qts = quotient_trees(ph)
    dd_vals = [tree_wiener_double_linear(t.tree, t.a, t.b) for t in qts]
    gut_vals = [tree_wiener_linear(t.tree, t.a) for t in qts]
    assert sorted(dd_vals[:3]) == [2976, 4416, 5208]
    assert dd_vals[3] == 5784
    assert sorted(gut_vals[:3]) == [3600, 5520, 6484]
    assert gut_vals[3] == 7252


def test_quotient_tree_4_is_inner_dual():
    for placement in chain_placements(4):
        ph = build_phenylene(placement)
        t4 = quotient_trees(ph)[3].tree
        dual = build_benzenoid(placement).inner_dual
        assert t4.n == dual.n
        assert sorted(len(a) for a in t4.adj) == sorted(len(a) for a in dual.adj)


def test_tree_wiener_linear_examples():
    k2 = build_graph(2, [(0, 1)])
    assert tree_wiener_double_linear(k2, (2, 3), (1, 1)) == 5
    p3 = path_graph(3)
    assert tree_wiener_double_linear(p3, degree_vector(p3), (1, 1, 1)) == 10
    assert tree_wiener_linear(p3, (1, 1, 1)) == 4


@given(trees(min_n=1, max_n=12))
def test_tree_wiener_matches_oracle(t):
    a = tuple(2 + (v % 3) for v in range(t.n))
    b = tuple(1 + (v % 2) for v in range(t.n))
    if t.n == 1:
        assert tree_wiener_double_linear(t, a, b) == 0
        return
    assert tree_wiener_double_linear(t, a, b) == wiener_double(
        DoubleWeightedGraph(t, a, b)
    )
    assert tree_wiener_linear(t, a) == wiener_weighted(t, a)


def test_tree_routines_reject_non_trees():
    c4 = cycle_graph(4)
    with pytest.raises(NotATreeError):
        tree_wiener_double_linear(c4, (1,) * 4, (1,) * 4)
    with pytest.raises(NotATreeError):
        tree_wiener_linear(c4, (1,) * 4)


def test_three_route_agreement():
    for placement in all_test_placements():
        ph = build_phenylene(placement)
        want = (degree_distance(ph.graph), gutman(ph.graph))
        assert dd_gut_via_trees(ph) == want
        assert dd_gut_via_squeeze(placement) == want
        qts = quotient_trees(ph)
        assert sum(tree_wiener_double_linear(t.tree, t.a, t.b) for t in qts) == want[0]
        assert sum(tree_wiener_linear(t.tree, t.a) for t in qts) == want[1]


def test_dd_gut_via_trees_examples():
    assert dd_gut_via_trees(build_phenylene([(0, 0)])) == (108, 108)
    assert dd_gut_via_trees(build_phenylene(phe6_placement())) == (18384, 22856)


def test_component_labels_match_pure_python():
    ph = build_phenylene(phe6_placement())
    for c in (1, 2, 3, 4):
        keep = ph.edge_class != c
        _, labels = component_labels(ph.graph.n, ph._eu[keep], ph._ev[keep])
        component_of, _, _ = _components_reference(ph.graph, np.flatnonzero(~keep).tolist())
        assert tuple(labels.tolist()) == component_of


def test_phenylene_theta_classes_are_elementary_cuts():
    # every theta*-class sits inside one structural class
    ph = build_phenylene(gen_phenylene_chain(3, "A+"))
    classes = theta_star_classes(ph.graph)
    for cls in classes.classes:
        kinds = {int(ph.edge_class[e]) for e in cls}
        assert len(kinds) == 1


def test_placement_parsing_round_trip():
    placement = phe6_placement()
    again = parse_placement(format_placement(placement))
    assert again == placement
    with pytest.raises(Exception, match="line 2"):
        parse_placement("0 0\n1\n")


# ------------------------------------------------------------------
# The array route against the loops it replaced, kept here as references.


def reference_split_sums(n, edges, a, b):
    """The former Python tree pass: BFS order and parents, then subtree
    sums from the leaves up.  Returns W(a, b), W*(a), W*(b) of the tree."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [0] * n
    seen = [False] * n
    seen[0] = True
    order = [0]
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    sa, sb = list(a), list(b)
    ta, tb = sum(a), sum(b)
    double = single_a = single_b = 0
    for u in reversed(order[1:]):
        au, bu = sa[u], sb[u]
        sa[parent[u]] += au
        sb[parent[u]] += bu
        double += au * (tb - bu) + (ta - au) * bu
        single_a += au * (ta - au)
        single_b += bu * (tb - bu)
    return double, single_a, single_b


def reference_placement(cells):
    """The former dict-based validation: sorted cells, or the PlacementError."""
    out = sorted((int(q), int(r)) for q, r in cells)
    if not out:
        raise PlacementError("placement has no cells")
    for i in range(1, len(out)):
        if out[i] == out[i - 1]:
            raise PlacementError(f"duplicate cell {out[i]}")
    counts = {}
    for q, r in out:
        for p in _cell_corners(q, r):
            c = counts.get(p, 0) + 1
            if c >= 3:
                raise PlacementError(f"internal lattice vertex at {p}")
            counts[p] = c
    index = {c: i for i, c in enumerate(out)}
    dual = []
    for i, (q, r) in enumerate(out):
        for dq, dr in NEIGHBOR_OFFSETS:
            j = index.get((q + dq, r + dr))
            if j is not None and j > i:
                dual.append((i, j))
    if component_labels(len(out), *np.array(dual, dtype=np.intp).reshape(-1, 2).T)[0] != 1:
        raise PlacementError("cells do not form a connected system")
    if len(dual) != len(out) - 1:
        raise PlacementError("inner dual is not a tree")
    return out, dual


def reference_phenylene(cells):
    """The former loop builder: edge tuples and edge classes."""
    out, dual = reference_placement(cells)
    edges, ecls = [], []
    for i in range(len(out)):
        base = 6 * i
        for k in range(5):
            edges.append((base + k, base + k + 1))
            ecls.append(k % 3 + 1)
        edges.append((base, base + 5))
        ecls.append(3)
    for i, j in dual:
        (qi, ri), (qj, rj) = out[i], out[j]
        k = NEIGHBOR_OFFSETS.index((qj - qi, rj - ri))
        edges.append((6 * i + k, 6 * j + (k + 4) % 6))
        edges.append((6 * i + (k + 1) % 6, 6 * j + (k + 3) % 6))
        ecls.extend((4, 4))
    return edges, ecls


def reference_benzenoid(cells):
    """The former dict-based benzenoid builder: vertex coordinates, edge
    tuples and edge directions, numbered by first appearance."""
    out, dual = reference_placement(cells)
    coords, index_of, edge_dir = [], {}, {}
    for q, r in out:
        ids = []
        for p in _cell_corners(q, r):
            if p not in index_of:
                index_of[p] = len(coords)
                coords.append(p)
            ids.append(index_of[p])
        for k in range(6):
            u, v = ids[k], ids[(k + 1) % 6]
            edge_dir.setdefault((min(u, v), max(u, v)), k % 3 + 1)
    return coords, list(edge_dir), list(edge_dir.values()), dual


def reference_parse(text):
    cells = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'q r', got {line!r}")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'q r', got {line!r}") from None
    return reference_placement(cells)[0]


@st.composite
def labelled_trees(draw, max_n=200):
    """Paths, stars, caterpillars and random trees, relabelled at random,
    with edges in random order and orientation."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["path", "star", "caterpillar", "random"]))
    if kind == "path":
        edges = [(v - 1, v) for v in range(1, n)]
    elif kind == "star":
        edges = [(0, v) for v in range(1, n)]
    elif kind == "caterpillar":
        spine = draw(st.integers(1, n))
        edges = [(v - 1, v) for v in range(1, spine)]
        edges += [(draw(st.integers(0, spine - 1)), v) for v in range(spine, n)]
    else:
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for u, v in edges]
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]


# W(a, b), W*(a), W*(b) over the rows a, b: the order of reference_split_sums
SPLIT_PAIRS = [(0, 1, False), (0, 0, True), (1, 1, True)]


def kernel_split_sums(n, qu, qv, weights):
    """The kernel's W(a, b), W*(a), W*(b) for the two rows a, b of
    ``weights``, divided back; integer arrays are scaled here."""
    if not isinstance(weights, Weights):
        weights = scale_weights(np.stack(weights))
    values = _tree_sums(n, np.asarray(qu), np.asarray(qv), weights, SPLIT_PAIRS)
    return column_values(values, weights, SPLIT_PAIRS)


TREE_WEIGHTS = {
    "int": st.integers(1, 9),
    "fraction": st.builds(Fraction, st.integers(1, 20), st.integers(1, 7)),
    "near53": st.integers(2**53 - 50, 2**53 + 50),
    "near63": st.integers(2**63 - 50, 2**63 + 50),
}


@pytest.mark.parametrize("kind", sorted(TREE_WEIGHTS))
@given(tree=labelled_trees(), data=st.data())
def test_tree_kernel_matches_reference_loop(kind, tree, data):
    n, edges = tree
    a = data.draw(st.lists(TREE_WEIGHTS[kind], min_size=n, max_size=n))
    b = data.draw(st.lists(TREE_WEIGHTS[kind], min_size=n, max_size=n))
    want = reference_split_sums(n, edges, a, b)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    scaled = weights_of([a, b])
    got = kernel_split_sums(n, ends[:, 0], ends[:, 1], scaled)
    assert got == list(want)
    g = Graph(n, edges)
    double = tree_wiener_double_linear(g, a, b)
    single = tree_wiener_linear(g, a)
    assert (double, single, tree_wiener_linear(g, b)) == want
    # a Fraction weight makes a Fraction sum, as in the loop
    assert type(double) is type(want[0]) and type(single) is type(want[1])


def gram_dtypes(monkeypatch):
    """The dtype of the sides of every call of ``exact._gram`` from now on,
    logged: one call per tree."""
    real, calls = exact_module._gram, []

    def logged(sides, pairs, bound):
        calls.append(sides.dtype)
        return real(sides, pairs, bound)

    monkeypatch.setattr(exact_module, "_gram", logged)
    return calls


def test_int64_guard_boundary(monkeypatch):
    # the per-edge terms are bounded by T_x T_y with T = sum|w|; with the
    # term W*(a), T_a^2 is the largest: 2**62 - 2**32 + 1 runs the tree's
    # Gram matrix in int64, 2**62 runs it on Python ints
    below = np.array([2**30, 2**30 - 1], dtype=np.int64)
    at = np.array([2**30, 2**30], dtype=np.int64)
    ones = np.ones(2, dtype=np.int64)
    assert _exact_dtype(int(below.sum()) ** 2) is np.int64
    assert _exact_dtype(int(at.sum()) ** 2) is object
    grams = gram_dtypes(monkeypatch)
    for w, dtype in ((below, np.int64), (at, object)):
        grams.clear()
        assert kernel_split_sums(2, [0], [1], (w, ones)) == list(
            reference_split_sums(2, [(0, 1)], w.tolist(), [1, 1])
        )
        assert grams == [np.dtype(dtype)]


@pytest.mark.parametrize("length, wraps", [(3, False), (4, True)])
def test_gram_on_each_side_of_its_sum_bound(length, wraps, monkeypatch):
    # products of 2^61: three sum below 2^63 in one int64 einsum, four reach
    # 2^63, where it would wrap to -2^63, so the products go to _exact_sum
    sides = np.array([[2**31] * length, [-(2**30)] * length], dtype=np.int64)
    bound = 2**61
    assert (length * bound >= 2**63) is wraps
    summed = []
    real = exact_module._exact_sum
    monkeypatch.setattr(exact_module, "_exact_sum", lambda t: summed.append(t.size) or real(t))
    pairs = [(0, 1, False), (1, 0, False)]
    sums, dots = exact_module._gram(sides, pairs, bound)
    assert dots == [-length * bound] * 2
    assert sums == [length * 2**31, -length * 2**30]
    # past the bound, the two rows and the pairs' products only: S_0 . S_0
    # (2^62 per edge) is formed by no pair
    assert len(summed) == (4 if wraps else 0)
    assert exact_module._gram(sides.astype(object), pairs, bound)[1] == [-length * bound] * 2


def test_int64_kernel_sums_past_int64_exactly():
    # a path of 1000 vertices with T just under 2**30: the int64 kernel runs,
    # but its split sums pass 2**63, so the terms are added as two halves
    n = 1000
    a = [2**30 // n - 1] * n
    b = [2**30 // n - 2] * n
    edges = [(v - 1, v) for v in range(1, n)]
    assert _exact_dtype(sum(a) * sum(a)) is np.int64  # T_a^2 is the largest bound
    want = reference_split_sums(n, edges, a, b)
    assert min(want) >= 2**63
    ends = np.array(edges)
    assert kernel_split_sums(n, ends[:, 0], ends[:, 1], (np.array(a), np.array(b))) == list(want)


def test_tree_kernel_rejects_non_trees():
    ones = np.ones(3, dtype=np.int64)
    with pytest.raises(NotATreeError, match="1 edges on 3 vertices"):
        kernel_split_sums(3, [0], [1], (ones, ones))


def test_labels_past_int32_products():
    # 50001 components: lo * ncomp + hi passes 2**31, so the int32 labels of
    # connected_components must widen before the codes are formed
    pairs = 50001
    eu = np.concatenate((2 * np.arange(pairs), 2 * np.arange(pairs - 1) + 1))
    ev = np.concatenate((2 * np.arange(pairs) + 1, 2 * np.arange(pairs - 1) + 2))
    in_class = np.arange(eu.size) >= pairs
    ncomp, labels, qu, qv = _quotient(2 * pairs, eu, ev, in_class)
    assert ncomp == pairs and ncomp * ncomp > 2**31
    assert qu.tolist() == list(range(pairs - 1)) and qv.tolist() == list(range(1, pairs))
    sums = _component_sums(labels, ncomp, np.ones(2 * pairs, dtype=np.int64))
    # a path of 50001 components of two vertices each
    k = np.arange(1, pairs, dtype=object)
    w = int(np.sum(4 * k * (pairs - k)))
    assert kernel_split_sums(ncomp, qu, qv, (sums, sums)) == [2 * w, w, w]


NB = NEIGHBOR_OFFSETS


@st.composite
def branched_placements(draw, max_h=25):
    """Catacondensed placements grown one cell at a time: each new cell
    touches exactly one placed cell."""
    h = draw(st.integers(1, max_h))
    cells = [(0, 0)]
    occupied = {(0, 0)}
    while len(cells) < h:
        q, r = draw(st.sampled_from(cells))
        dq, dr = draw(st.sampled_from(NB))
        cell = (q + dq, r + dr)
        if cell in occupied or sum((cell[0] + x, cell[1] + y) in occupied for x, y in NB) != 1:
            continue
        cells.append(cell)
        occupied.add(cell)
    return draw(st.permutations(cells))


@st.composite
def chain_placements_drawn(draw):
    h, pattern = draw(kink_patterns(max_h=12))
    try:
        return list(gen_phenylene_chain(h, pattern).cells)
    except PlacementError:
        assume(False)


@given(st.one_of(branched_placements(), chain_placements_drawn()))
@example(list(phe6_placement().cells))
@example([(q + 2**62, r - 2**62) for q, r in gen_phenylene_chain(9, "A+LA-A-LA+L").cells])
def test_quotient_tree_weights_are_component_sums(cells):
    # the API trees against the definition: the components of G - F by a
    # plain search, an edge wherever F joins two, their degree sums and sizes
    ph = build_phenylene(cells)
    degs = degree_vector(ph.graph)
    for c, qt in enumerate(quotient_trees(ph), start=1):
        removed = np.flatnonzero(ph.edge_class == c).tolist()
        component_of, count, members = _components_reference(ph.graph, removed)
        assert qt.n == qt.tree.n == count
        assert qt._quotient_graph.component_of == component_of
        assert list(qt.tree.edges) == _quotient_edges_reference(ph.graph, removed, component_of)
        assert qt.a == tuple(sum(degs[v] for v in group) for group in members)
        assert qt.b == tuple(map(len, members))
        assert all(type(x) is int for x in qt.a + qt.b)


@given(st.one_of(branched_placements(), chain_placements_drawn()))
def test_array_builds_match_loop_builders(cells):
    edges, ecls = reference_phenylene(cells)
    ph = build_phenylene(cells)
    assert list(zip(ph._eu.tolist(), ph._ev.tolist())) == edges
    assert ph.edge_class.tolist() == ecls
    assert ph.graph.edges == tuple(edges)
    want = (degree_distance(ph.graph), gutman(ph.graph))
    assert dd_gut_via_trees(ph) == want
    coords, bedges, directions, dual = reference_benzenoid(cells)
    benz = build_benzenoid(cells)
    corners = [_cell_corners(*benz.placement.cells[f // 6])[f % 6]
               for f in benz._first_corner.tolist()]
    assert corners == coords
    assert list(benz.graph.edges) == bedges
    assert benz._direction.tolist() == directions
    assert list(benz.inner_dual.edges) == dual
    assert dd_gut_via_squeeze(cells) == want


def first_seen_numbers(keys):
    """Equal keys numbered by their first position, and per number that
    position."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(order.size, dtype=np.int64)
    number[order] = np.arange(order.size)
    return number[inverse], first[order]


def coordinate_benzenoid(placement):
    """``build_benzenoid``'s arrays from corner coordinates, with no inner
    dual: a cell's corners are fixed offsets from its centre (3q, 2r + q),
    equal points are one vertex and equal end pairs one edge, each numbered
    by its first slot 6i + k."""
    q, r = placement.grid[:, 0], placement.grid[:, 1]
    dx, dy = np.array(CORNER_OFFSETS, dtype=np.int64).T
    x = (3 * q)[:, None] + dx
    y = (2 * r + q)[:, None] + dy + 1
    vertex, first_corner = first_seen_numbers((x * (int(y.max()) + 1) + y).ravel())
    ends = vertex.reshape(-1, 6)
    u, v = ends.ravel(), np.roll(ends, -1, axis=1).ravel()  # edge k: corners k, k+1
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    first_edge = first_seen_numbers(lo * first_corner.size + hi)[1]
    return lo[first_edge], hi[first_edge], first_edge % 3 + 1, first_corner


@st.composite
def long_chains(draw):
    """Chains of up to 60 cells: a random kink pattern, cut to half its
    length until the chain no longer touches itself."""
    h, pattern = draw(kink_patterns(max_h=60))
    kinks = parse_kinks(pattern)
    while True:
        try:
            return list(gen_phenylene_chain(h, "".join(kinks[:max(h - 2, 0)])).cells)
        except PlacementError:
            h //= 2


@given(st.one_of(branched_placements(max_h=40), chain_placements_drawn(), long_chains()))
@example(list(phe6_placement().cells))
@example([(q + 2**62, r - 2**62) for q, r in gen_phenylene_chain(9, "A+LA-A-LA+L").cells])
def test_benzenoid_numbering_matches_corner_coordinates(cells):
    # the inner dual's corner and edge numbering against the coordinates'
    benz = build_benzenoid(cells)
    got = benz._eu, benz._ev, benz._direction, benz._first_corner
    for mine, wanted in zip(got, coordinate_benzenoid(benz.placement)):
        assert mine.dtype == wanted.dtype
        assert mine.tolist() == wanted.tolist()


@st.composite
def cell_sets(draw):
    """Small, often invalid, sets of cells, now and then split far apart."""
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=8))
    if cells and draw(st.booleans()):
        far = draw(st.sampled_from([10**6, 2**62, -(10**30)]))
        cells = [(q + far, r) if i % 2 else (q, r) for i, (q, r) in enumerate(cells)]
    return cells


@given(cell_sets())
@example([(0, 0), (0, 1), (1, 0), (1, 1)])  # two internal vertices: (1, 1) is met first
def test_placement_errors_match_loop_validation(cells):
    try:
        want = reference_placement(cells)
    except PlacementError as exc:
        with pytest.raises(PlacementError) as got:
            _validated_dual(BenzenoidPlacement.of(cells))
        assert str(got.value) == str(exc)
        return
    placement = BenzenoidPlacement.of(cells)
    di, dj, _, mask = _validated_dual(placement)
    assert (list(placement.cells), list(zip(di.tolist(), dj.tolist()))) == want
    present = reference_neighbours(placement.grid) >= 0
    assert mask.tolist() == [sum(1 << d for d in range(6) if row[d]) for row in present]


def parent_phenylene_edges(ph):
    """The edges, as pairs, and the edge classes from the dual (i, j, k)
    the way ``build_phenylene`` once stored them: two connector rows,
    (hexagon, corner) per end, then the hexagon edges and connectors
    concatenated."""
    di, dj, dk = ph._dual
    con_hexagon = np.stack((np.repeat(di, 2), np.repeat(dj, 2)))
    con_corner = np.stack((
        np.column_stack((dk, (dk + 1) % 6)).ravel(),
        np.column_stack(((dk + 4) % 6, (dk + 3) % 6)).ravel(),
    ))
    base = 6 * np.arange(ph.hexagon_count)[:, None]
    ends = [
        np.concatenate(((base + corners).ravel(), 6 * con_hexagon[row] + con_corner[row]))
        for row, corners in enumerate(([0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5]))
    ]
    classes = [1, 2, 3, 1, 2, 3] * ph.hexagon_count + [4] * con_hexagon.shape[1]
    return list(zip(ends[0].tolist(), ends[1].tolist())), classes


@given(st.one_of(branched_placements(), chain_placements_drawn(), st.just([(0, 0)])))
def test_lazy_connectors_match_the_stored_connectors(cells):
    ph = build_phenylene(cells)
    assert not {"_eu", "_ev", "edge_class", "graph"} & set(vars(ph))
    edges, classes = parent_phenylene_edges(ph)
    assert list(ph.graph.edges) == edges
    assert ph.m == ph.graph.m == len(edges)
    assert ph.edge_class.tolist() == classes


def test_connected_without_labelling_when_every_cell_has_an_earlier_neighbour(monkeypatch):
    calls = []
    labels = phenylene_module.component_labels

    def spy(*args):
        calls.append(args[0])
        return labels(*args)

    monkeypatch.setattr(phenylene_module, "component_labels", spy)
    _validated_dual(gen_phenylene_chain(30, KINKS))
    assert calls == []
    # a hook: (1, 0), second in (q, r) order, touches only (2, 0), so the
    # path is labelled to prove it connected
    hook = [(0, 5), (1, 4), (2, 3), (2, 2), (2, 1), (2, 0), (1, 0)]
    _validated_dual(BenzenoidPlacement.of(hook))
    assert calls == [7]
    with pytest.raises(PlacementError, match="connected"):
        _validated_dual(BenzenoidPlacement.of([(0, 0), (1, 0), (3, 0)]))


PLACEMENT_LINES = [
    "0 0", "1 0", "0 1", "2 -1", "7", "a b", "1 2 3", "", "  ", "# note", "3 0", "-1 1",
    "0 0 # x", "+1 0", "0\t+1", " -0  1 ", "1_0 0", "\u0663 0", "0 1\x0c", "- 1", "1.5 0",
    f"{2**60 - 1} 0", f"{2**60} 0", f"0 {-(2**60)}", f"0 {2**63}", f"{-(2**63) - 1} 0",
    "99999999999999999999 1",
]


@given(st.lists(st.sampled_from(PLACEMENT_LINES), max_size=8), st.sampled_from(["\n", "\r\n", "\r"]))
def test_placement_parsing_matches_line_reader(lines, end):
    text = end.join(lines) + end
    # the reference also validates the placement, which parsing leaves to
    # _validated_dual: compare the two steps together
    try:
        want = reference_parse(text)
    except (ValueError, PlacementError) as exc:
        with pytest.raises(ValueError) as got:
            _validated_dual(parse_placement(text))
        assert str(got.value) == str(exc)
        return
    placement = parse_placement(text)
    _validated_dual(placement)
    assert list(placement.cells) == want


KINKS = "A+LA-L" * 7


def test_trees_route_builds_no_graph(monkeypatch, capsys):
    ph = build_phenylene(gen_phenylene_chain(30, KINKS))
    want = dd_gut_via_trees(ph)
    assert "graph" not in vars(ph)

    def no_graph(*args, **kwargs):
        raise AssertionError("the trees route built a Graph")

    monkeypatch.setattr(phenylene_module, "Graph", no_graph)
    assert cli.main(["compute", "--family", "chain", "--n", "30", "--kinks", KINKS]) == 0
    out = capsys.readouterr().out
    assert f"DD      = {want[0]}" in out and f"Gut     = {want[1]}" in out


def reference_neighbours(grid):
    """The former neighbour lookup: one binary search for each of the six
    neighbours of every cell, through an argsort of the keys."""
    q, r = grid[:, 0], grid[:, 1]
    width = int(r.max()) + 3
    keys = (q + 1) * width + (r + 1)
    offsets = np.array([dq * width + dr for dq, dr in NEIGHBOR_OFFSETS], dtype=np.int64)
    wanted = keys[:, None] + offsets
    order = np.argsort(keys, kind="stable")
    found = np.minimum(np.searchsorted(keys, wanted, sorter=order), len(keys) - 1)
    return np.where(keys[order[found]] == wanted, order[found], -1)


@st.composite
def distinct_cells(draw):
    """Sets of distinct cells, valid placements or not: single cells, dense
    clusters, and clusters split by wide gaps or shifted past 2^61."""
    cells = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=30, unique=True
    ))
    far = draw(st.sampled_from([0, 50, 10**6, 2**61, 2**62, -(2**63), 10**30]))
    axis = draw(st.sampled_from([0, 1]))
    split = draw(st.integers(0, len(cells)))
    return [
        (q + far, r) if axis == 0 and i < split else (q, r + far) if i < split else (q, r)
        for i, (q, r) in enumerate(cells)
    ]


@given(distinct_cells())
@example([(0, 0)])
@example([(2**61, 5), (2**61 + 1, 4), (-(2**61), 0)])
def test_neighbours_match_indirect_search(cells):
    placement = BenzenoidPlacement.of(cells)
    if any(max(abs(q), abs(r)) > 2 * len(cells) for q, r in cells):
        assert placement.grid.max() <= 4 * len(cells)  # _grid_axis closed the gaps
    later, want = _later_neighbours(placement.grid), reference_neighbours(placement.grid)
    assert np.array_equal(later, want[:, [0, 1, 5]])
    # every earlier neighbour is the cell that has this one as a later one
    cell, column = np.nonzero(later >= 0)
    assert np.array_equal(want[later[cell, column], np.array([3, 4, 2])[column]], cell)
    assert np.count_nonzero(want[:, 2:5] >= 0) == cell.size


# The runs kernel against the trees it stands for.  "near31" weights bring
# sum|w| near 2^31, so that the largest per-edge bound, T^2 of W*(a),
# falls on either side of the int64 guard at 2^62.
RUN_WEIGHTS = {
    "int": lambda h: st.integers(1, 9),
    "fraction": lambda h: st.builds(Fraction, st.integers(1, 20), st.integers(1, 7)),
    "near31": lambda h: st.integers(2**31 // (6 * h) - 2, 2**31 // (6 * h) + 2),
    "near53": lambda h: st.integers(2**53 - 50, 2**53 + 50),
    "near63": lambda h: st.integers(2**63 - 50, 2**63 + 50),
}


def explicit_tree_values(t, weights, pairs):
    """The pairs on one materialised quotient tree: its edges, its weights
    (``b`` for the ones, ``a`` for the degrees, the rows of ``weights``
    summed through the quotient's ``component_of``) and the plain tree kernel."""
    labels = np.array(t._quotient_graph.component_of)
    rows = [t.b, t.a] + [_component_sums(labels, t.n, w).tolist() for w in weights.rows]
    ph = t.phenylene
    matrix = Weights(np.array(rows, dtype=object), (1, 1) + weights.scales,
                     (ph.n, 2 * ph.m) + weights.bounds)
    # a tree without edges gives no row, and 0 for every pair
    return _tree_sums(t.n, *t.tree.edge_array.T, matrix, pairs).sum(axis=0).tolist()


def solve_matrix(ph, weights):
    """The weight matrix of a solve (``cut_method.ROWS``) on the phenylene's
    vertices: the ones, the degrees, then ``weights``."""
    return solve.LoadedInput(ph, "", weights).matrix


@pytest.mark.parametrize("kind", sorted(RUN_WEIGHTS))
@given(
    cells=st.one_of(branched_placements(), chain_placements_drawn(), st.just([(0, 0)])),
    data=st.data(),
)
def test_runs_kernel_matches_explicit_trees(kind, cells, data):
    ph = build_phenylene(cells)
    n = ph.n
    weights = weights_of([
        data.draw(st.lists(RUN_WEIGHTS[kind](len(cells)), min_size=n, max_size=n))
        for v in "ab"
    ])
    pairs = index_pairs(INDEX_TERMS)
    trees = quotient_trees(ph)
    got, hexagons = tree_block_matrix(trees, weights, pairs)
    want = [explicit_tree_values(t, weights, pairs) for t in trees]
    assert got.tolist() == want
    # divided back by the hexagon rows' scales as by the vertex rows'
    got_values = column_values(got, hexagons, pairs)
    want_values = column_values(np.array(want, dtype=object), solve_matrix(ph, weights), pairs)
    assert got_values == want_values
    assert list(map(type, got_values)) == list(map(type, want_values))
    assert [t.n for t in trees] == [t.tree.n for t in trees]


def labelled_runs(ph):
    """The runs by the former labelling: one ``component_labels`` over 3h
    nodes, node (c-1) h + x for hexagon x in class c, each dual edge
    joining its ends in its class; and the first run of each class, then
    the run count."""
    h = ph.hexagon_count
    di, dj, dk = ph._dual
    run_class = (dk % 3).astype(np.intp) * h
    nruns, run = component_labels(3 * h, run_class + di, run_class + dj)
    return run, np.append(run[::h], nruns)


@given(st.one_of(
    branched_placements(), chain_placements_drawn(), st.integers(1, 60), st.just([(0, 0)])
))
@example(60)
@example([(q + 2**62, r - 2**62) for q, r in gen_phenylene_chain(9, "A+LA-A-LA+L").cells])
def test_sorted_runs_match_labelled_runs(cells):
    # the runs from one sort along lattice lines are the labelled runs, up
    # to their numbering inside a class; an integer is a linear chain
    ph = build_phenylene(gen_phenylene_chain(cells) if isinstance(cells, int) else cells)
    h = ph.hexagon_count
    runs = _Runs.of(ph)
    want_run, want_bounds = labelled_runs(ph)
    assert runs.bounds.tolist() == want_bounds.tolist()
    got = runs.run.tolist()
    assert len(set(zip(got, want_run.tolist()))) == len(set(got)) == len(set(want_run.tolist()))
    for c, (lo, hi) in enumerate(zip(want_bounds[:-1], want_bounds[1:])):
        assert all(lo <= x < hi for x in got[c * h:(c + 1) * h])


def with_total(n, total):
    """n positive weights that sum to ``total``."""
    w = [total // n] * n
    w[0] += total - sum(w)
    return w


def test_runs_kernel_guard_sides():
    # sum|a| = 2^31 - 1 keeps W*(a) on int64, 2^31 sends it to Python ints;
    # both agree with the explicit trees
    ph = build_phenylene(gen_phenylene_chain(4, "A+L"))
    pairs = index_pairs({k: INDEX_TERMS[k] for k in ("wiener_weighted", "wiener_double")})
    for total, dtype in ((2**31 - 1, np.int64), (2**31, object)):
        assert _exact_dtype(total * total) is dtype
        weights = weights_of([with_total(ph.n, total), [1] * ph.n])
        trees = quotient_trees(ph)
        want = [explicit_tree_values(t, weights, pairs) for t in trees]
        assert tree_block_matrix(trees, weights, pairs)[0].tolist() == want



@pytest.mark.parametrize("kind", ["int", "fraction"])
@given(
    cells=st.one_of(branched_placements(), chain_placements_drawn(), st.just([(0, 0)])),
    data=st.data(),
)
def test_trees_blocks_match_the_cut_engine_blocks(kind, cells, data):
    # the trees route's array is the cut engine's over the four edge
    # classes, row for row, in the same scaled units; the single hexagon's
    # connector class is empty, and its dual has the empty sum
    ph = build_phenylene(cells)
    weights = weights_of([
        data.draw(st.lists(RUN_WEIGHTS[kind](len(cells)), min_size=ph.n, max_size=ph.n))
        for _ in "ab"
    ])
    pairs = index_pairs(INDEX_TERMS)
    matrix = solve_matrix(ph, weights)
    classes = [np.flatnonzero(ph.edge_class == c) for c in (1, 2, 3, 4)]
    present = np.array([c.size > 0 for c in classes])
    engine = CutEngine(ph.graph, EdgePartition(tuple(tuple(c.tolist()) for c in classes if c.size)))
    want = engine.block_matrix(matrix, pairs)
    got, hexagons = tree_block_matrix(quotient_trees(ph), weights, pairs)
    assert got[present].tolist() == want.tolist()
    assert got[~present].tolist() == [[0] * len(pairs)] * int((~present).sum())
    assert column_values(got, hexagons, pairs) == column_values(want, matrix, pairs)


@pytest.mark.parametrize("totals, dtype", [
    ((2**31 - 1, 2**31 + 1), np.int64),  # T_a T_b = 2^62 - 1
    ((2**30, 2**32), object),  # T_a T_b = 2^62
])
def test_split_sums_on_each_side_of_the_per_edge_bound(totals, dtype, monkeypatch):
    # the one pair W(a, b) has the per-edge bound T_a T_b: below 2^62 each
    # tree's Gram matrix runs on int64, at 2^62 on Python ints; the
    # plain tree and the four trees agree with their references either way
    assert _exact_dtype(totals[0] * totals[1]) is dtype
    pairs = [(0, 1, False)]
    grams = gram_dtypes(monkeypatch)
    a, b = (with_total(2, t) for t in totals)
    got = _tree_sums(2, np.array([0]), np.array([1]), weights_of([a, b]), pairs)
    assert got.tolist() == [[a[0] * b[1] + a[1] * b[0]]]
    assert grams == [np.dtype(dtype)]
    ph = build_phenylene(gen_phenylene_chain(4, "A+L"))
    weights = weights_of([with_total(ph.n, t) for t in totals])
    trees = quotient_trees(ph)
    grams.clear()
    got, _ = tree_block_matrix(trees, weights, [(2, 3, False)])
    assert grams == [np.dtype(dtype)] * 4
    assert got.tolist() == [explicit_tree_values(t, weights, [(2, 3, False)]) for t in trees]


def test_trees_int64_terms_summed_past_int64():
    # T_a^2 < 2^62 keeps every per-edge term of W*(a) on int64, but on a
    # chain of 60 hexagons a tree's terms sum past 2^63: they are added as
    # two halves, and agree with the explicit trees on Python ints
    ph = build_phenylene(gen_phenylene_chain(60))
    weights = weights_of([with_total(ph.n, 2**31 - 1), [1] * ph.n])
    assert _exact_dtype((2**31 - 1) ** 2) is np.int64
    pairs = index_pairs({"wiener_weighted": INDEX_TERMS["wiener_weighted"]})
    trees = quotient_trees(ph)
    got, _ = tree_block_matrix(trees, weights, pairs)
    assert got.max() >= 2**63
    assert got.tolist() == [explicit_tree_values(t, weights, pairs) for t in trees]


@pytest.mark.parametrize("a", [[1, 2, 3, 4, 5, 6], [Fraction(k + 1, 2) for k in range(6)]])
def test_single_hexagon_trees_route(a):
    # h = 1: the dual has no edge, so tree 4 holds the int 0 for every pair;
    # every index agrees with the oracle in value and type
    ph = build_phenylene([(0, 0)])
    loaded = solve.LoadedInput(ph, "", weights_of([a, [1] * 6]))
    pairs = index_pairs(INDEX_TERMS)  # weighted: every index
    blocks, hexagons = tree_block_matrix(quotient_trees(ph), loaded.weights, pairs)
    assert [type(v) for v in blocks[3].tolist()] == [int] * len(pairs)
    assert blocks[3].tolist() == [0] * len(pairs)
    got = column_values(blocks, hexagons, pairs)
    want = list(solve._oracle_indices(loaded).values())
    assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want]

def test_trees_solve_tours_the_dual_once(monkeypatch):
    # one Euler tour, of the h-vertex dual, and no labelling: the runs come
    # from a sort; the trees' own labelling runs only when their edges are read
    h = 30
    ph = build_phenylene(gen_phenylene_chain(h, KINKS))
    tours, labels = [], []

    def spy(log, real):
        def wrapped(n, *args):
            log.append(n)
            return real(n, *args)
        return wrapped

    tour = spy(tours, exact_module._euler_tour)
    monkeypatch.setattr(exact_module, "_euler_tour", tour)
    monkeypatch.setattr(phenylene_module, "_euler_tour", tour)
    monkeypatch.setattr(phenylene_module, "component_labels", spy(labels, component_labels))
    want = dd_gut_via_trees(ph)
    assert (tours, labels) == ([h], [])
    trees = quotient_trees(ph)
    assert [t.n for t in trees] == [t.tree.n for t in trees]
    assert want == (degree_distance(ph.graph), gutman(ph.graph))


def test_lazy_edge_arrays_and_edge_count():
    ph = build_phenylene(gen_phenylene_chain(6, "A+A-LA+"))
    assert ph.m == 8 * 6 - 2
    assert not {"_eu", "_ev", "edge_class", "graph"} & set(vars(ph))
    assert ph.m == len(ph._eu) == len(ph._ev) == len(ph.edge_class) == ph.graph.m


# The two-column kernels that the flat ones replaced, kept as references:
# the tour with the twin arc of every CSR position looked up by np.where,
# the runs keyed by (line, position) differences, and the runs kernel with
# one (places, 2) lookup for both non-run classes.
def two_column_tour(ncomp, qu, qv):
    m = ncomp - 1
    arcs = 2 * m
    idx = np.int32 if arcs < 1 << 31 else np.int64
    if not m:
        return (np.zeros(0, dtype=idx),) * 3
    tail = np.concatenate((qu, qv), dtype=idx)
    counts = np.bincount(tail, minlength=ncomp)
    order = np.argsort(tail, kind="stable").astype(idx)
    where = np.empty(arcs, dtype=idx)
    where[order] = np.arange(arcs, dtype=idx)
    order = np.where(order < m, order + m, order - m)
    head = tail[order]
    twin = where[order]
    ends = np.cumsum(counts)
    succ = np.arange(1, arcs + 1, dtype=idx)
    succ[ends - 1] = ends - counts
    succ = succ[twin]
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    cycle = csr_matrix((np.ones(arcs), succ, np.arange(arcs + 1, dtype=idx)), shape=(arcs, arcs))
    tour = breadth_first_order(cycle, 0, directed=True, return_predecessors=False)
    rank = np.empty(arcs, dtype=idx)
    rank[tour] = np.arange(arcs, dtype=idx)
    later = rank[twin[tour]]
    down = np.flatnonzero(later > np.arange(arcs, dtype=idx)).astype(idx)
    position = tour[down]
    stop = np.arange(1, m + 1, dtype=idx) + (later[down] - down - 1) // 2
    edge = order[position]
    return np.where(edge < m, edge, edge - m), head[position], stop


def keyed_runs(grid, di, dj, dk):
    h = len(grid)
    q, r = grid[:, 0], grid[:, 1]
    run = np.empty(3 * h, dtype=np.int64)
    bounds = [0]
    for c, (line, pos) in enumerate(((r, q), (q, r), (q + r, q))):
        edges = np.flatnonzero(dk % 3 == c)
        i, j = di[edges], dj[edges]
        key = line[i] * (int(pos.max()) + 2) + pos[i]
        order = np.argsort(key, kind="stable")
        start = np.diff(key[order], prepend=-2) != 1
        edge_run = np.cumsum(start) + (bounds[-1] - 1)
        nodes = run[c * h:(c + 1) * h]
        nodes.fill(-1)
        nodes[i[order]] = edge_run
        nodes[j[order]] = edge_run
        alone = np.flatnonzero(nodes < 0)
        first = bounds[-1] + int(np.count_nonzero(start))
        nodes[alone] = np.arange(first, first + alone.size)
        bounds.append(first + alone.size)
    return run, np.array(bounds, dtype=np.int64)


TWO_COLUMN_NON_RUN = np.array([[(k + 1) % 3, (k + 2) % 3] for k in range(6)], dtype=np.intp)
TWO_COLUMN_MEETS = np.array([
    [_HALF_OF[c, (k + 4 * end) % 6] for c in TWO_COLUMN_NON_RUN[k]]
    for k in range(6) for end in (0, 1)
])


def two_column_runs(ph):
    h = ph.hexagon_count
    di, dj, dk = ph._dual
    edge, child, stop = two_column_tour(h, di, dj)
    run, bounds = keyed_runs(ph.placement.grid, di, dj, dk)
    nruns = int(bounds[-1])
    k = dk[edge].astype(np.intp)
    in_j = child == dj[edge]
    meets = 2 * k + in_j
    node = TWO_COLUMN_NON_RUN[k] * h
    tops = run[node + child[:, None]]
    far_one = np.zeros(nruns, dtype=bool)
    far_one[tops] = ~TWO_COLUMN_MEETS[meets]
    top_place = np.full(nruns, edge.size, dtype=np.intp)
    top_place[tops] = np.arange(edge.size)[:, None]
    hangs = TWO_COLUMN_MEETS[meets ^ 1]
    parents = (node + np.where(in_j, di[edge], dj[edge])[:, None])[hangs]
    return {
        "child": child, "stop": stop, "bounds": bounds, "run": run,
        "hang_place": np.nonzero(hangs)[0], "hang_run": run[parents],
        "far_one": far_one, "top_place": top_place,
        "mask": ph._mask,
    }


def assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@given(st.one_of(branched_placements(), chain_placements_drawn(), st.just([(0, 0)])))
@example(list(gen_phenylene_chain(60, "A+A-" * 29).cells))
@example([(q + 2**62, r - 2**62) for q, r in gen_phenylene_chain(9, "A+LA-A-LA+L").cells])
def test_flat_kernels_match_two_column_references(cells):
    ph = build_phenylene(cells)
    di, dj, dk = ph._dual
    for got, want in zip(_euler_tour(ph.hexagon_count, di, dj), two_column_tour(ph.hexagon_count, di, dj)):
        assert_identical(got, want)
    for got, want in zip(_sorted_runs(ph.placement.grid, di, dj, dk), keyed_runs(ph.placement.grid, di, dj, dk)):
        assert_identical(got, want)
    runs, want = _Runs.of(ph), two_column_runs(ph)
    for name in ("child", "stop", "bounds", "run", "far_one", "top_place", "mask"):
        assert_identical(getattr(runs, name), want[name])
    # the hangs only feed np.add.at, so their order is free
    assert runs.hang_place.dtype == want["hang_place"].dtype
    assert runs.hang_run.dtype == want["hang_run"].dtype
    pairs = Counter(zip(runs.hang_place.tolist(), runs.hang_run.tolist()))
    assert pairs == Counter(zip(want["hang_place"].tolist(), want["hang_run"].tolist()))


@given(st.one_of(branched_placements(), chain_placements_drawn(), st.just([(0, 0)])))
def test_degree_sums_by_mask_match_the_degrees(cells):
    # the byte tables hold every degree sum (at most 24, below a byte's
    # 256) and give the phenylene's degrees summed on every hexagon and on
    # its half 1 of each class, corners c, c+1, c+2
    assert 0 <= _DEGREE_SUMS.min() and _DEGREE_SUMS.max() == 24 < 256
    masks = np.arange(64, dtype=np.uint8)
    for row in range(4):
        assert_identical(_degree_sums(row, masks, np.int64), _DEGREE_SUMS[row])
    ph = build_phenylene(cells)
    corners = np.bincount(ph.graph.edge_array.ravel(), minlength=ph.n).reshape(-1, 6)
    assert_identical(_degree_sums(3, ph._mask, np.int64), corners.sum(axis=1))
    for c in (1, 2, 3):
        halves = corners[:, [c, (c + 1) % 6, (c + 2) % 6]].sum(axis=1)
        assert_identical(_degree_sums(c - 1, ph._mask, np.int32), halves.astype(np.int32))


@given(trees(max_n=40), st.randoms(use_true_random=False))
def test_flat_tour_matches_two_column_reference_on_trees(tree, rnd):
    # any tree, with its edges in any order and either way round
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in tree.edges]
    rnd.shuffle(edges)
    qu, qv = (np.array([e[s] for e in edges], dtype=np.int64).reshape(-1) for s in (0, 1))
    for got, want in zip(_euler_tour(tree.n, qu, qv), two_column_tour(tree.n, qu, qv)):
        assert_identical(got, want)


def test_tour_index_dtype_across_its_limit(monkeypatch):
    # 2^31 - 1 arcs keep every index of the tour, the arc count included, in
    # int32; 2^31 arcs take int64.  No tour that large is built: with int32's
    # limit shrunk to just above the arc count the tour stays int32, and at
    # the arc count it takes int64 and agrees.
    assert _narrowest_dtype(2**31 - 1, np.int32) is np.int32
    assert _narrowest_dtype(2**31, np.int32) is np.int64
    assert np.iinfo(np.int32).max == 2**31 - 1
    ph = build_phenylene(gen_phenylene_chain(9, "A+LA-A-LA+L"))
    arcs = 2 * (ph.hexagon_count - 1)
    want = _euler_tour(ph.hexagon_count, *ph._dual[:2])
    for limit, dtype in ((arcs + 1, np.int32), (arcs, np.int64)):
        monkeypatch.setitem(exact_module._LIMITS, np.int32, limit)
        out = _euler_tour(ph.hexagon_count, *ph._dual[:2])
        assert {a.dtype for a in out} == {np.dtype(dtype)}
        for got, expected in zip(out, want):
            assert expected.dtype == np.int32 and np.array_equal(got, expected)


# The tracemalloc peak of a trees solve on a linear chain of 10^5 hexagons,
# measured with numpy 2.4 and scipy 1.17 (10.21 MiB, after the per-solve
# degree table and the per-pair split products went; 15.46 MiB before),
# plus 10%.
TREES_PEAK_BYTES = 11_776_000
# The same for `compute --cells` on a linear chain of 5 * 10^4 hexagons, from
# the placement text to the printed report (7.49 MiB; 10.45 MiB before),
# plus 4%.
CELLS_PEAK_BYTES = 8_205_000


def test_trees_solve_peak_memory():
    ph = build_phenylene(gen_phenylene_chain(100_000))
    want = dd_gut_via_trees(ph)  # warm: scipy loaded, caches built
    tracemalloc.start()
    try:
        assert dd_gut_via_trees(ph) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TREES_PEAK_BYTES, f"peak {peak} bytes"


def test_cells_compute_peak_memory(tmp_path, capsys):
    path = tmp_path / "chain.cells"
    path.write_text(format_placement(gen_phenylene_chain(50_000)))
    argv = ["compute", "--cells", str(path), "--json"]
    assert cli.main(argv) == 0  # warm: modules loaded
    want = capsys.readouterr().out
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got = capsys.readouterr().out
    assert got.split('"timing_ms"')[0] == want.split('"timing_ms"')[0]
    assert peak <= CELLS_PEAK_BYTES, f"peak {peak} bytes"
