"""Deterministic generators for the graph families used in tests and benchmarks."""

from __future__ import annotations

import random
import re
from itertools import combinations

import numpy as np

from .graph import Graph, GraphError, PlacementError
from .phenylene import NEIGHBOR_OFFSETS, BenzenoidPlacement, _cell_order, _later_neighbours


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite_graph(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise GraphError("complete bipartite graph needs both sides nonempty")
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def hypercube_graph(d: int) -> Graph:
    """The d-cube on 2^d vertices; adjacency flips one bit."""
    if d < 1:
        raise GraphError("hypercube needs dimension >= 1")
    n = 1 << d
    edges = [(u, u | (1 << k)) for u in range(n) for k in range(d) if not u & (1 << k)]
    return Graph(n, edges)


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 adjacent to all others."""
    if n < 2:
        raise GraphError("star needs n >= 2")
    return Graph(n, [(0, v) for v in range(1, n)])


def windmill_graph(k: int) -> Graph:
    """k triangles sharing the centre vertex 0 (the friendship graph)."""
    if k < 1:
        raise GraphError("windmill needs k >= 1")
    edges = []
    for t in range(k):
        x, y = 2 * t + 1, 2 * t + 2
        edges += [(0, x), (0, y), (x, y)]
    return Graph(2 * k + 1, edges)


def random_connected_graph(n: int, m: int | None = None, seed: int = 0) -> Graph:
    """Seed-deterministic connected graph: random attachment tree plus extra edges."""
    if n < 1:
        raise GraphError("random graph needs n >= 1")
    rng = random.Random(seed)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    if m is None:
        m = n - 1
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise GraphError(f"m={m} out of range for n={n}")
    if m == n - 1:
        return Graph(n, tree)
    # rng.sample draws positions in the list of absent pairs, in
    # combinations(range(n), 2) order, reading only its length; each
    # position is then unranked past the tree pairs' ranks, never listing
    # the O(n^2) absent pairs
    tree = np.array(tree)
    starts = np.arange(n) * (2 * n - np.arange(n) - 1) // 2  # rank of (u, u + 1)
    taken = np.sort(starts[tree[:, 0]] + tree[:, 1] - tree[:, 0] - 1)
    picks = np.array(rng.sample(range(n * (n - 1) // 2 - (n - 1)), m - (n - 1)))
    ranks = picks + np.searchsorted(taken - np.arange(n - 1), picks, side="right")
    u = np.searchsorted(starts, ranks, side="right") - 1
    extra = np.stack((u, ranks - starts[u] + u + 1), axis=1)
    return Graph(n, np.concatenate((tree, extra)))


def gen_house(n: int) -> Graph:
    """Ladder of n rungs with an apex over the first rung.

    Rails u_1..u_n and v_1..v_n at even/odd indices, rungs u_i v_i, and an
    apex (index 2n) adjacent to u_1 and v_1; 2n+1 vertices, 3n edges, and
    exactly n theta*-classes, all of whose quotients are complete.
    """
    if n < 2:
        raise GraphError("house family needs n >= 2")
    edges = [(0, 2 * n), (1, 2 * n)]
    for j in range(n):
        edges.append((2 * j, 2 * j + 1))
    for j in range(n - 1):
        edges.append((2 * j, 2 * j + 2))
        edges.append((2 * j + 1, 2 * j + 3))
    return Graph(2 * n + 1, edges)


_KINKS = re.compile(r"(?:L|A[+-])*")
_TURNS = np.zeros(128, dtype=np.int64)  # a kink's last character to its turn: L 0, + 1, - -1
_TURNS[[ord("+"), ord("-")]] = 1, -1
_STEPS = np.array(NEIGHBOR_OFFSETS, dtype=np.int64)


def _kink_string(pattern: str) -> str:
    """A kink pattern over {L, A+, A-}, with or without commas, as one
    character per kink (L, + or -), read by one match."""
    compact = pattern.replace(",", "").replace(" ", "").upper()
    end = _KINKS.match(compact).end()
    if end < len(compact):
        raise PlacementError(f"bad kink pattern {pattern!r} at position {end}")
    return compact.replace("A", "")


def parse_kinks(pattern: str) -> list[str]:
    """Parse a kink pattern over {L, A+, A-}, with or without commas."""
    return [k if k == "L" else "A" + k for k in _kink_string(pattern)]


def gen_phenylene_chain(h: int, kinks: str | None = None) -> BenzenoidPlacement:
    """Catacondensed chain of h hexagons.

    The first two cells run east; from the third cell on, the kink pattern
    (length h-2) chooses the attachment: L keeps the direction, A+ and A-
    turn by one lattice direction.  Patterns that make the chain touch
    itself are rejected, naming the first cell that does; a chain touches
    itself before it can collide (``_chain_fault``).
    The directions are a cumulative sum of the turns, and the cells a
    cumulative sum of the steps.
    """
    if h < 1:
        raise GraphError("chain needs h >= 1")
    pattern = _kink_string(kinks) if kinks else ""
    if kinks and len(pattern) != max(h - 2, 0):
        raise PlacementError(
            f"kink pattern has length {len(pattern)}, expected {max(h - 2, 0)}"
        )
    direction = np.zeros(h - 1, dtype=np.int64)  # of the step into cell t + 1
    if pattern:
        direction[1:] = np.cumsum(_TURNS[np.frombuffer(pattern.encode(), np.uint8)]) % 6
    cells = np.zeros((h, 2), dtype=np.int64)
    np.cumsum(_STEPS[direction], axis=0, out=cells[1:])
    t = _chain_fault(cells)
    if t is not None:
        raise PlacementError(f"kink pattern makes cell {t + 1} touch the chain")
    return BenzenoidPlacement._from_array(cells)


def _chain_fault(cells: np.ndarray) -> int | None:
    """The first cell, in chain order, that touches an earlier cell other
    than its predecessor; None for a valid chain.

    A chain never repeats a cell before some cell touches: if cell t + 1
    repeats cell s, then cell t lies next to s, and s is not t - 1, since
    two steps turning by at most 60 degrees never cancel.  So cell t
    touches first, and the cells before the first repeat hold the first
    touch.  Sorted as a placement sorts them, their ``_later_neighbours``
    give every neighbouring pair once; a pair whose later cell, in chain
    order, is not the earlier one's successor makes the later cell touch.
    """
    q, r, order, repeats = _cell_order(cells)
    if repeats.size:
        order = order[order < order.take(repeats).min()]
    later = _later_neighbours(np.stack((q.take(order), r.take(order))).T)
    found = later >= 0
    a, b = order.take(found.nonzero()[0]), order.take(later[found])
    late = np.maximum(a, b)
    late = late[np.minimum(a, b) < late - 1]
    return int(late.min()) if late.size else None


# Frozen six-hexagon reference system: inner dual is a five-vertex path with a
# pendant hexagon on its second vertex.  Unique up to lattice symmetry given
# the frozen quotient-tree index values (tests/test_families.py::
# test_phe6_is_the_one_isomer_with_the_frozen_tree_values re-derives it).
PHE6_CELLS: tuple[tuple[int, int], ...] = (
    (0, 0),
    (0, 1),
    (1, 1),
    (2, 1),
    (2, 2),
    (3, 0),
)


def phe6_placement() -> BenzenoidPlacement:
    """The frozen six-hexagon reference placement used across the test suite."""
    return BenzenoidPlacement.of(PHE6_CELLS)


_BASIC = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "hypercube": hypercube_graph,
    "star": star_graph,
    "windmill": windmill_graph,
    "house": gen_house,
}


def gen_basic(kind: str, n: int, seed: int = 0) -> Graph:
    """Dispatch the basic generators by name.

    ``complete_bipartite`` builds the balanced K_{n,n}; call
    :func:`complete_bipartite_graph` directly for unbalanced sides.
    """
    if kind in _BASIC:
        return _BASIC[kind](n)
    if kind == "complete_bipartite":
        return complete_bipartite_graph(n, n)
    if kind == "random":
        return random_connected_graph(n, seed=seed)
    raise GraphError(f"unknown family {kind!r}")
