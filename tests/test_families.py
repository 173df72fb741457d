import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from topocut.graph import Graph, GraphError, degree_vector
from topocut.theta import quotient, theta_star_classes
from topocut.phenylene import (
    NEIGHBOR_OFFSETS, BenzenoidPlacement, PlacementError
)
from topocut.families import (
    _chain_fault,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    gen_basic,
    gen_house,
    gen_phenylene_chain,
    hypercube_graph,
    parse_kinks,
    path_graph,
    phe6_placement,
    random_connected_graph,
    star_graph,
    windmill_graph,
)

from test_phenylene import inner_dual


def test_basic_generators():
    assert (hypercube_graph(3).n, hypercube_graph(3).m) == (8, 12)
    assert (cycle_graph(5).n, cycle_graph(5).m) == (5, 5)
    assert (complete_graph(4).n, complete_graph(4).m) == (4, 6)
    assert (path_graph(1).n, path_graph(1).m) == (1, 0)
    assert (complete_bipartite_graph(2, 3).n, complete_bipartite_graph(2, 3).m) == (5, 6)
    assert (star_graph(5).n, star_graph(5).m) == (5, 4)
    assert (windmill_graph(3).n, windmill_graph(3).m) == (7, 9)


def test_gen_basic_dispatch():
    assert gen_basic("cycle", 6).m == 6
    assert gen_basic("complete_bipartite", 2).m == 4
    for n, seed in ((1, 0), (7, 3), (20, 11)):
        assert gen_basic("random", n, seed=seed).edges == random_connected_graph(n, seed=seed).edges
    with pytest.raises(GraphError, match="unknown family"):
        gen_basic("mystery", 3)


def test_generator_bounds():
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        path_graph(0)
    with pytest.raises(GraphError):
        hypercube_graph(0)
    with pytest.raises(GraphError):
        gen_house(1)
    for build, message in (
        (lambda: complete_graph(0), "complete graph needs n >= 1"),
        (lambda: complete_bipartite_graph(0, 2), "complete bipartite graph needs both sides nonempty"),
        (lambda: star_graph(1), "star needs n >= 2"),
        (lambda: windmill_graph(0), "windmill needs k >= 1"),
        (lambda: random_connected_graph(0), "random graph needs n >= 1"),
    ):
        with pytest.raises(GraphError, match=f"^{message}$"):
            build()


def test_random_connected_deterministic():
    g1 = random_connected_graph(12, 20, seed=5)
    g2 = random_connected_graph(12, 20, seed=5)
    g3 = random_connected_graph(12, 20, seed=6)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    assert g1.m == 20
    with pytest.raises(GraphError):
        random_connected_graph(5, 20)


def _random_connected_reference(n, m=None, seed=0):
    """The list-based draw: every absent pair listed, then sampled."""
    rng = random.Random(seed)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    if m is None:
        m = n - 1
    present = set(tree)
    non_edges = [e for e in combinations(range(n), 2) if e not in present]
    extra = rng.sample(non_edges, m - (n - 1))
    return Graph(n, tree + extra)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, extra", [(1, 0), (2, 0), (9, 0), (40, 0), (9, 5), (40, 1), (40, 60)])
def test_random_connected_matches_reference(seed, n, extra):
    # no list of absent pairs is built; every seeded graph stays
    want = _random_connected_reference(n, n - 1 + extra, seed)
    assert random_connected_graph(n, n - 1 + extra, seed).edges == want.edges
    if not extra:
        assert random_connected_graph(n, seed=seed).edges == want.edges


@settings(max_examples=150)
@given(st.integers(1, 30), st.floats(0, 1), st.integers(0, 10**6))
def test_random_connected_unranks_the_sampled_pairs(n, share, seed):
    # any m from a tree to the complete graph: the same edges in the same
    # order as the list-based draw
    top = n * (n - 1) // 2
    m = n - 1 + round(share * (top - (n - 1)))
    assert random_connected_graph(n, m, seed).edges == _random_connected_reference(n, m, seed).edges


@pytest.mark.parametrize("n, m, seed", [(200, 250, 1), (300, 44850, 2), (400, 2000, 3), (500, 501, 4)])
def test_random_connected_matches_reference_larger(n, m, seed):
    assert random_connected_graph(n, m, seed).edges == _random_connected_reference(n, m, seed).edges


def test_house_counts_and_classes():
    for n in range(2, 51):
        hn = gen_house(n)
        assert (hn.n, hn.m) == (2 * n + 1, 3 * n)
    for n in (2, 3, 6, 10):
        assert len(theta_star_classes(gen_house(n)).classes) == n


def test_house_merged_class_component_degree_sums():
    for n in (2, 5, 9):
        hn = gen_house(n)
        classes = theta_star_classes(hn)
        degs = degree_vector(hn)
        merged = max(classes.classes, key=len)  # triangle plus all rungs
        assert len(merged) == n + 2
        sums = sorted(sum(degs[v] for v in ms) for ms in quotient(hn, merged).members)
        assert sums == [2, 3 * n - 1, 3 * n - 1]


def test_house_h2_is_the_house_graph():
    h2 = gen_house(2)
    assert (h2.n, h2.m) == (5, 6)
    assert sorted(degree_vector(h2)) == [2, 2, 2, 3, 3]


def test_chain_generator():
    assert len(gen_phenylene_chain(1)) == 1
    assert len(gen_phenylene_chain(2)) == 2
    linear6 = gen_phenylene_chain(6)
    dual = inner_dual(linear6)
    assert sorted(len(a) for a in dual.adj) == [1, 1, 2, 2, 2, 2]  # a path
    kinked = gen_phenylene_chain(5, "A+A-L")
    assert len(kinked) == 5


def test_chain_kink_errors():
    with pytest.raises(PlacementError, match="collid|touch"):
        gen_phenylene_chain(8, "A+A+A+A+A+A+")
    with pytest.raises(PlacementError, match="length"):
        gen_phenylene_chain(5, "A+")
    with pytest.raises(PlacementError, match="bad kink"):
        parse_kinks("LAX")


def reference_parse_kinks(pattern):
    """The former kink parser: one token at a time."""
    tokens = []
    i = 0
    compact = pattern.replace(",", "").replace(" ", "").upper()
    while i < len(compact):
        ch = compact[i]
        if ch == "L":
            tokens.append("L")
            i += 1
        elif ch == "A" and i + 1 < len(compact) and compact[i + 1] in "+-":
            tokens.append("A" + compact[i + 1])
            i += 2
        else:
            raise PlacementError(f"bad kink pattern {pattern!r} at position {i}")
    return tokens


def _parse_outcome(parse, pattern):
    try:
        return parse(pattern)
    except PlacementError as exc:
        return str(exc)


@settings(max_examples=400)
@given(st.text(alphabet="LlAa+-, X\u0131\u00df", max_size=30))
@example("A+A-LX")
@example("A")
@example("LA+a-,  l")
def test_parse_kinks_matches_the_token_loop(pattern):
    # the tokens, or the error text with its position, as the loop reads them
    assert _parse_outcome(parse_kinks, pattern) == _parse_outcome(reference_parse_kinks, pattern)


def reference_phenylene_chain(h, kinks=None):
    """The former chain generator: one cell at a time, with set lookups."""
    if h < 1:
        raise GraphError("chain needs h >= 1")
    pattern = reference_parse_kinks(kinks) if kinks else ["L"] * max(h - 2, 0)
    if len(pattern) != max(h - 2, 0):
        raise PlacementError(f"kink pattern has length {len(pattern)}, expected {max(h - 2, 0)}")
    cells = [(0, 0)]
    direction = 0
    if h >= 2:
        cells.append(NEIGHBOR_OFFSETS[0])
    occupied = set(cells)
    for step, kink in enumerate(pattern):
        if kink == "A+":
            direction = (direction + 1) % 6
        elif kink == "A-":
            direction = (direction - 1) % 6
        q, r = cells[-1]
        dq, dr = NEIGHBOR_OFFSETS[direction]
        nxt = (q + dq, r + dr)
        if nxt in occupied:
            raise PlacementError(f"kink pattern collides at cell {step + 3}")
        touching = sum((nxt[0] + oq, nxt[1] + orr) in occupied for oq, orr in NEIGHBOR_OFFSETS)
        if touching != 1:
            raise PlacementError(f"kink pattern makes cell {step + 3} touch the chain")
        occupied.add(nxt)
        cells.append(nxt)
    return BenzenoidPlacement.of(cells)


def _chain_outcome(generate, h, kinks):
    try:
        return generate(h, kinks).cells
    except (GraphError, PlacementError) as exc:
        return type(exc), str(exc)


@st.composite
def drawn_kinks(draw):
    """A chain length and a kink pattern, of the right length or one off,
    with turns weighted so that many patterns curl into the chain."""
    h = draw(st.integers(0, 40))
    bias = draw(st.sampled_from([["L"], ["L", "A+", "A-"], ["A+", "A+", "L"], ["A-", "A-", "A+"]]))
    size = max(h - 2, 0) + draw(st.sampled_from([0, 0, 0, 1]))
    tokens = draw(st.lists(st.sampled_from(bias), min_size=size, max_size=size))
    return h, draw(st.sampled_from(["".join(tokens), ",".join(tokens).lower(), None]))


@settings(max_examples=400)
@given(drawn_kinks())
@example((5, "LA+X"))
@example((4, "a-a"))
def test_chain_generator_matches_loop(case):
    h, kinks = case
    assert _chain_outcome(gen_phenylene_chain, h, kinks) == _chain_outcome(
        reference_phenylene_chain, h, kinks
    )


def test_chain_generator_matches_loop_on_failures():
    rng = random.Random(3)
    failures = 0
    for _ in range(300):
        h = rng.randint(3, 60)
        kinks = "".join(rng.choice(["A+", "A+", "L", "A-"]) for _ in range(h - 2))
        want = _chain_outcome(reference_phenylene_chain, h, kinks)
        failures += isinstance(want[0], type)
        assert _chain_outcome(gen_phenylene_chain, h, kinks) == want
    assert failures > 50


def test_chain_fault_names_the_first_touch():
    # the first touching cell in chain order; a kink pattern touches the
    # chain before it can repeat a cell (test_chain_faults_by_exhaustion)
    assert _chain_fault(np.array([(0, 0), (1, 0), (1, 1), (0, 1)])) == 3
    assert _chain_fault(np.array([(0, 0), (1, 0), (1, 1)])) is None


def test_chain_faults_by_exhaustion():
    # every kink pattern for 3 <= h <= 10 (9,840 patterns) fails or passes
    # as the cell-by-cell reference does, and none collides before touching
    outcomes = 0
    for h in range(3, 11):
        for kinks in map("".join, product(("L", "A+", "A-"), repeat=h - 2)):
            got = _chain_outcome(gen_phenylene_chain, h, kinks)
            assert got == _chain_outcome(reference_phenylene_chain, h, kinks), (h, kinks)
            assert not (isinstance(got[0], type) and "collides" in got[1]), (h, kinks)
            outcomes += 1
    assert outcomes == 9840


def test_parse_kinks_formats():
    assert parse_kinks("LA+A-") == ["L", "A+", "A-"]
    assert parse_kinks("l, a+, a-") == ["L", "A+", "A-"]


def test_phe6_fixture_shape():
    placement = phe6_placement()
    assert len(placement) == 6
    dual = inner_dual(placement)
    assert sorted(len(a) for a in dual.adj) == [1, 1, 1, 2, 2, 3]


def _lattice_canonical(cells):
    """The smallest translated, sorted image of a cell set under the twelve
    symmetries of the hexagonal lattice (rotations by 60 degrees and a
    mirror, in cube coordinates)."""
    cubes = [(q, -q - r, r) for q, r in cells]
    best = None
    for mirror in (False, True):
        image = [(x, z, y) for x, y, z in cubes] if mirror else cubes
        for _ in range(6):
            image = [(-z, -x, -y) for x, y, z in image]
            q0, r0 = min(x for x, _, _ in image), min(z for _, _, z in image)
            key = tuple(sorted((x - q0, z - r0) for x, _, z in image))
            best = key if best is None or key < best else best
    return best


def test_phe6_is_the_one_isomer_with_the_frozen_tree_values():
    """Provenance of PHE6_CELLS: of the catacondensed six-hexagon systems
    whose inner dual is a five-vertex path with a pendant at its second
    vertex, exactly one, up to lattice symmetry, gives the frozen per-tree
    values: DD shares {5208, 2976, 4416} on the direction trees and 5784 on
    the connector tree, Gut shares {6484, 3600, 5520} and 7252."""
    from itertools import product

    from topocut.families import PHE6_CELLS
    from topocut.cut_method import index_pairs
    from topocut.phenylene import (
        NEIGHBOR_OFFSETS, build_phenylene, quotient_trees, tree_block_matrix,
    )

    step = NEIGHBOR_OFFSETS
    seen, matches = set(), set()
    # p1 - p2 - p3 - p4 - p5 with the pendant q on p2 (at the origin)
    for d1, dq, d3, d4, d5 in product(range(6), repeat=5):
        p3 = step[d3]
        p4 = (p3[0] + step[d4][0], p3[1] + step[d4][1])
        p5 = (p4[0] + step[d5][0], p4[1] + step[d5][1])
        cells = [step[d1], step[dq], (0, 0), p3, p4, p5]
        key = _lattice_canonical(cells)
        if len(set(cells)) != 6 or key in seen:
            continue
        seen.add(key)
        try:
            # a valid system has exactly the five dual edges drawn, so its
            # inner dual has the wanted shape
            trees = quotient_trees(build_phenylene(cells))
        except PlacementError:
            continue
        pairs = index_pairs({"dd": ("deg", "1"), "gut": ("deg", None)})
        per_tree = tree_block_matrix(trees, None, pairs)[0]
        dd, gut = per_tree[:, 0].tolist(), (per_tree[:, 1] // 2).tolist()
        if (sorted(dd[:3]), dd[3], sorted(gut[:3]), gut[3]) == (
            [2976, 4416, 5208], 5784, [3600, 5520, 6484], 7252
        ):
            matches.add(key)
    assert matches == {_lattice_canonical(PHE6_CELLS)}
