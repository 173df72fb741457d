"""Hypothesis strategies for random connected graphs, trees, and weights."""

from itertools import combinations

from hypothesis import strategies as st

from topocut.graph import Graph


@st.composite
def trees(draw, min_n=1, max_n=14):
    """Random tree via a parent array (shrinks toward paths/stars on 0)."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_n=1, max_n=14):
    """Random connected graph: spanning tree plus a subset of extra edges."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    present = set(tree)
    non_edges = [e for e in combinations(range(n), 2) if e not in present]
    extra = draw(
        st.lists(st.sampled_from(non_edges), unique=True, max_size=min(len(non_edges), n))
        if non_edges
        else st.just([])
    )
    return Graph(n, tree + list(extra))


@st.composite
def weighted_graphs(draw, min_n=1, max_n=12, lo=1, hi=9):
    g = draw(connected_graphs(min_n=min_n, max_n=max_n))
    w = tuple(draw(st.integers(lo, hi)) for _ in range(g.n))
    return g, w


@st.composite
def double_weighted_graphs(draw, min_n=1, max_n=12, lo=1, hi=9):
    g = draw(connected_graphs(min_n=min_n, max_n=max_n))
    a = tuple(draw(st.integers(lo, hi)) for _ in range(g.n))
    b = tuple(draw(st.integers(lo, hi)) for _ in range(g.n))
    return g, a, b


@st.composite
def kink_patterns(draw, max_h=7):
    """Chain length plus a kink pattern that yields a valid placement."""
    h = draw(st.integers(1, max_h))
    # A+/A- runs of length >= 5 curl into the chain; short runs stay valid.
    pattern = draw(
        st.lists(
            st.sampled_from(["L", "L", "A+", "A-"]), min_size=max(h - 2, 0),
            max_size=max(h - 2, 0),
        )
    )
    return h, "".join(pattern)


@st.composite
def pendant_graphs(draw, max_n=18):
    """Graphs with trees hanging off them, under a random vertex numbering.

    The base is a random tree (n = 1 and n = 2 included), a star, a path, a
    cycle, K_n, or two cycles joined by a path (whose bridges lie between
    two cycles, so they stay in the 2-core).  Random trees are then attached:
    each new vertex hangs from any earlier one.
    """
    kind = draw(st.sampled_from(["tree", "star", "path", "cycle", "complete", "two_cycles"]))
    if kind in ("tree", "star", "path"):
        n = draw(st.integers(1, max_n))
        parent = {
            "tree": lambda v: draw(st.integers(0, v - 1)),
            "star": lambda v: 0,
            "path": lambda v: v - 1,
        }[kind]
        edges = [(parent(v), v) for v in range(1, n)]
    elif kind == "cycle":
        n = draw(st.integers(3, 8))
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif kind == "complete":
        n = draw(st.integers(3, 5))
        edges = list(combinations(range(n), 2))
    else:
        a, b, joint = draw(st.integers(3, 5)), draw(st.integers(3, 5)), draw(st.integers(1, 3))
        edges = [(v, (v + 1) % a) for v in range(a)]
        edges += [(a + v, a + (v + 1) % b) for v in range(b)]
        path = [0] + list(range(a + b, a + b + joint - 1)) + [a]
        edges += list(zip(path, path[1:]))
        n = a + b + joint - 1
    if kind in ("cycle", "complete", "two_cycles"):
        hanging = draw(st.integers(0, max(max_n - n, 0)))
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(n, n + hanging)]
        n += hanging
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])
