"""Catacondensed benzenoid systems on the hexagonal lattice, phenylenes,
and linear-time computation of their degree distance and Gutman index.

Cells live in axial coordinates (q, r).  A cell's centre is mapped to the
integer point (3q, 2r + q); its six corners are fixed offsets from the
centre, so shared corners and edges of adjacent cells coincide exactly with
no geometric tolerance.  Hexagon edges fall into three parallel direction
classes (1, 2, 3); the squares that separate adjacent hexagons of a
phenylene contribute the connector class 4.  Each of the four classes is a
union of theta*-classes, and the quotient by each class is a tree, which is
what makes the O(n) route work.

The phenylene route is array code from end to end: a placement is parsed
into an (h, 2) array, validated by sorting and neighbour lookups, and built
as edge arrays (vertex 6i+k is corner k of hexagon i).  The phenylene's
``Graph`` is built only when something asks for it.  Each quotient tree is
evaluated by the Euler-tour kernel ``_tree_term_sums`` of
:mod:`topocut.exact`, which yields the split sums of a whole term list
(W(a,b), W*(a), ...) from one tour.  Vertex weights are scaled to integers
and the results divided back as in the cut engine, under the same int64
guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .cut_method import INDEX_TERMS
from .exact import NotATreeError, _scaled_array, _tree_term_sums
from .graph import (
    Graph, ParseError, component_labels, degree_vector, first_seen_labels, read_int_table
)
from .indices import Weight, check_weights

# Corner k of a cell centred at (X, Y) is (X, Y) + CORNER_OFFSETS[k].
# Hexagon edge k joins corners k and k+1 (mod 6) and has direction k % 3 + 1.
CORNER_OFFSETS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))

# Neighbour k (axial offset) shares hexagon edge k; the shared corners are
# corner k and corner k+1 of this cell, seen by the neighbour as corners
# (k+4) % 6 and (k+3) % 6 respectively.
NEIGHBOR_OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class PlacementError(ValueError):
    """A set of lattice cells that is not a catacondensed benzenoid system."""


def _cell_array(cells: Sequence[tuple[int, int]]) -> np.ndarray:
    """Cells as an (h, 2) int64 array, or an object array of Python ints
    when some coordinate reaches 2^61 (so that no difference of two
    coordinates can overflow int64)."""
    try:
        arr = np.array(cells, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.array(cells, dtype=object).reshape(-1, 2)
    if arr.size and max(int(arr.max()), -int(arr.min())) >= 1 << 61:
        return arr.astype(object)
    return arr


def _grid_axis(values: np.ndarray) -> np.ndarray:
    """One axis of the cells on a compact int64 grid starting at 0.

    Gaps wider than 2 close to 2.  Cells two or more apart on one axis
    neither touch nor share a corner, and order along the axis is kept, so
    sorting, adjacency and shared corners are those of the input.
    """
    lo = values.min()
    if values.max() - lo <= 2 * len(values):
        return (values - lo).astype(np.int64)
    uniq, inverse = np.unique(values, return_inverse=True)
    steps = np.minimum(np.diff(uniq), 2)
    return np.concatenate(([0], np.cumsum(steps))).astype(np.int64)[inverse]


@dataclass(frozen=True, eq=False, repr=False)
class BenzenoidPlacement:
    """A set of hexagon cells in axial coordinates, stored sorted.

    ``coords`` holds the cells as an (h, 2) array sorted by (q, r): int64,
    or Python ints when some coordinate reaches 2^61.  ``grid`` holds the
    same cells, in the same order, on the compact grid of ``_grid_axis``;
    the array routes work on it.  ``cells``, the cells as a tuple of (q, r)
    tuples, is built on first use; equality and hashing go by it.
    """

    coords: np.ndarray
    grid: np.ndarray

    @classmethod
    def of(cls, cells: Iterable[tuple[int, int]]) -> "BenzenoidPlacement":
        if isinstance(cells, BenzenoidPlacement):
            return cells
        return cls._from_array(_cell_array([(int(q), int(r)) for q, r in cells]))

    @classmethod
    def _from_array(cls, raw: np.ndarray) -> "BenzenoidPlacement":
        """Sort an (h, 2) cell array and reject an empty or repeated cell."""
        if not len(raw):
            raise PlacementError("placement has no cells")
        q, r = _grid_axis(raw[:, 0]), _grid_axis(raw[:, 1])
        order = np.lexsort((r, q))
        raw, q, r = raw[order], q[order], r[order]
        same = np.flatnonzero((q[1:] == q[:-1]) & (r[1:] == r[:-1]))
        if same.size:
            raise PlacementError(f"duplicate cell {tuple(raw[same[0] + 1].tolist())}")
        return cls(raw, np.column_stack((q, r)))

    @cached_property
    def cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.coords[:, 0].tolist(), self.coords[:, 1].tolist()))

    def __len__(self) -> int:
        return len(self.grid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BenzenoidPlacement):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"BenzenoidPlacement(cells={self.cells!r})"


@dataclass(frozen=True, eq=False)
class Benzenoid:
    """A catacondensed benzenoid: lattice graph, edge directions, inner dual.

    Vertices are numbered, and edges ordered, by first appearance in a scan
    of the cells in placement order and of each cell's corners and edges in
    order.  The arrays are the benzenoid; ``graph``, ``edge_direction``,
    ``inner_dual`` and ``vertex_coords`` are built from them on first use.
    """

    placement: BenzenoidPlacement
    _eu: np.ndarray
    _ev: np.ndarray
    _direction: np.ndarray  # 1..3 per edge
    _dual: tuple[np.ndarray, np.ndarray]  # inner-dual edges (i, j), i < j
    _first_corner: np.ndarray  # vertex -> its first occurrence 6 * cell + corner

    @cached_property
    def graph(self) -> Graph:
        return Graph(len(self._first_corner), np.column_stack((self._eu, self._ev)),
                     validate=False)

    @cached_property
    def edge_direction(self) -> tuple[int, ...]:  # parallel to graph.edges
        return tuple(self._direction.tolist())

    @cached_property
    def inner_dual(self) -> Graph:  # one vertex per cell, in placement order
        di, dj = self._dual
        return Graph(len(self.placement), np.column_stack((di, dj)))

    @cached_property
    def vertex_coords(self) -> tuple[tuple[int, int], ...]:
        cells = self.placement.cells
        return tuple(_cell_corners(*cells[f // 6])[f % 6] for f in self._first_corner.tolist())


@dataclass(frozen=True, eq=False)
class Phenylene:
    """A phenylene: 6h vertices (six per hexagon), 8h-2 edges.

    Vertex 6i+k is corner k of hexagon i.  ``edge_class`` holds 1..3 for
    hexagon edges (the direction of the corresponding benzenoid edge) and 4
    for the connector edges of the separating squares.  ``_eu``, ``_ev``
    are the edge ends in ``graph.edges`` order; ``graph`` is built on first
    use only.  The connectors come last; ``_con_hexagon`` and
    ``_con_corner`` (rows: lower and higher end) say where their ends sit.
    """

    placement: BenzenoidPlacement
    edge_class: np.ndarray
    _eu: np.ndarray
    _ev: np.ndarray
    _con_hexagon: np.ndarray
    _con_corner: np.ndarray

    @cached_property
    def graph(self) -> Graph:
        return Graph(self.n, np.column_stack((self._eu, self._ev)), validate=False)

    @property
    def n(self) -> int:
        return 6 * len(self.placement)

    @property
    def m(self) -> int:
        return len(self._eu)

    @property
    def hexagon_count(self) -> int:
        return len(self.placement)


def _cell_corners(q: int, r: int) -> list[tuple[int, int]]:
    cx, cy = 3 * q, 2 * r + q
    return [(cx + dx, cy + dy) for dx, dy in CORNER_OFFSETS]


def _neighbours(grid: np.ndarray) -> np.ndarray:
    """(h, 6) index of the neighbour of each cell in each direction, -1 if
    absent; a binary search over the sorted cells' encoded positions."""
    q, r = grid[:, 0], grid[:, 1]
    width = int(r.max()) + 3
    keys = (q + 1) * width + (r + 1)
    offsets = np.array([dq * width + dr for dq, dr in NEIGHBOR_OFFSETS], dtype=np.int64)
    wanted = keys[:, None] + offsets
    order = np.argsort(keys, kind="stable")  # the identity for sorted placements
    found = np.minimum(np.searchsorted(keys, wanted, sorter=order), len(keys) - 1)
    return np.where(keys[order[found]] == wanted, order[found], -1)


def _validated_dual(
    placement: BenzenoidPlacement,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inner dual's edges (i, j, k) with i < j and j the neighbour of
    cell i in direction k, ordered by (i, k).

    Raises for a lattice vertex in three cells (naming the corner at which
    a cell-by-cell, corner-by-corner scan first sees its third cell), a
    disconnected system, or an inner dual that is not a tree.
    """
    h = len(placement)
    nbr = _neighbours(placement.grid)
    # Corner k of cell i also lies in its neighbours k-1 and k; it is
    # internal when both exist, and a scan first sees it in three cells at
    # the cell of largest index.
    left = np.roll(nbr, 1, axis=1)
    cell = np.arange(h)[:, None]
    third = (nbr >= 0) & (left >= 0) & (nbr < cell) & (left < cell)
    if third.any():
        i, k = divmod(int(np.flatnonzero(third.ravel())[0]), 6)
        raise PlacementError(
            f"internal lattice vertex at {_cell_corners(*placement.cells[i])[k]}"
        )
    di, dk = np.nonzero(nbr > cell)
    dj = nbr[di, dk]
    if component_labels(h, di, dj)[0] != 1:
        raise PlacementError("cells do not form a connected system")
    if di.size != h - 1:
        raise PlacementError("inner dual is not a tree")
    return di, dj, dk


_CORNER_DX = np.array([dx for dx, _ in CORNER_OFFSETS], dtype=np.int64)
_CORNER_DY = np.array([dy for _, dy in CORNER_OFFSETS], dtype=np.int64)


def build_benzenoid(cells: Iterable[tuple[int, int]]) -> Benzenoid:
    """Build the benzenoid graph of a catacondensed placement plus its inner dual."""
    placement = BenzenoidPlacement.of(cells)
    di, dj, _ = _validated_dual(placement)
    q, r = placement.grid[:, 0], placement.grid[:, 1]
    # the corner points on the compact grid, y shifted to start at 0
    x = (3 * q)[:, None] + _CORNER_DX
    y = (2 * r + q)[:, None] + _CORNER_DY + 1
    vertex, first_corner = first_seen_labels((x * (int(y.max()) + 1) + y).ravel())
    ends = vertex.reshape(-1, 6)
    u, v = ends.ravel(), np.roll(ends, -1, axis=1).ravel()  # edge k: corners k, k+1
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first_edge = first_seen_labels(lo * first_corner.size + hi)
    return Benzenoid(
        placement, lo[first_edge], hi[first_edge], first_edge % 3 + 1, (di, dj), first_corner
    )


# Hexagon i's six edges, in order: corners (k, k+1) for k < 5, then (0, 5).
_HEX_U = np.array([0, 1, 2, 3, 4, 0], dtype=np.int64)
_HEX_V = np.array([1, 2, 3, 4, 5, 5], dtype=np.int64)
_HEX_CLASS = np.array([1, 2, 3, 1, 2, 3], dtype=np.int64)


def build_phenylene(cells: Iterable[tuple[int, int]]) -> Phenylene:
    """Build the phenylene of a catacondensed placement.

    Each hexagon gets its own six vertex copies; every shared benzenoid edge
    becomes a square via two connector edges between the copies of its
    endpoints.  Edges come in order: the six edges of each hexagon, then
    two connectors per inner-dual edge.
    """
    placement = BenzenoidPlacement.of(cells)
    di, dj, dk = _validated_dual(placement)
    h = len(placement)
    base = 6 * np.arange(h, dtype=np.int64)[:, None]
    # neighbour k's corners k+4 and k+3 meet this cell's corners k and k+1;
    # row 0 holds the connectors' ends in cell i, row 1 those in cell j.
    # int32 while every vertex number fits: the quotients read these arrays.
    small = np.int32 if 6 * h < 1 << 31 else np.int64
    con_hexagon = np.stack((np.repeat(di, 2), np.repeat(dj, 2))).astype(small)
    con_corner = np.stack((
        np.column_stack((dk, (dk + 1) % 6)).ravel(),
        np.column_stack(((dk + 4) % 6, (dk + 3) % 6)).ravel(),
    )).astype(small)
    con_u, con_v = 6 * con_hexagon + con_corner
    eu = np.concatenate(((base + _HEX_U).ravel(), con_u))
    ev = np.concatenate(((base + _HEX_V).ravel(), con_v))
    ecls = np.concatenate((np.tile(_HEX_CLASS, h), np.full(con_u.size, 4, dtype=np.int64)))
    return Phenylene(placement, ecls, eu, ev, con_hexagon, con_corner)


def squeeze_weights(
    b: Graph, t: Graph
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The four weight vectors of the squeeze decomposition.

    On the benzenoid: w1 = 4 deg - 6 and w2 = deg - 1 (per-vertex totals of
    the phenylene components that collapse onto each lattice vertex).  On the
    inner dual: w3 = 2 deg + 12 and w4 = 6 (per-hexagon totals).
    """
    degrees = (np.array(degree_vector(g), dtype=np.int64) for g in (b, t))
    return tuple(tuple(w.tolist()) for w in _squeeze_arrays(*degrees))


def _squeeze_arrays(deg_b: np.ndarray, deg_t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The weights of ``squeeze_weights`` from the two degree arrays."""
    return 4 * deg_b - 6, deg_b - 1, 2 * deg_t + 12, np.full(len(deg_t), 6, dtype=np.int64)


# ------------------------------------------------------------- plain trees


def tree_wiener_double_linear(
    tree: Graph, a: Sequence[Weight], b: Sequence[Weight]
) -> Weight:
    """Double-weighted Wiener index of a tree in O(n).

    Every tree edge is its own theta-class, so the index is the sum over
    edges of a(S1) b(S2) + a(S2) b(S1) for the two sides S1, S2 of the edge;
    ``_tree_term_sums`` gives all splits from one Euler tour.
    """
    check_weights(tree, a)
    check_weights(tree, b)
    weights = {"a": _scaled_array(a), "b": _scaled_array(b)}
    ends = tree.edge_array
    return _tree_term_sums(tree.n, *ends.T, weights, [INDEX_TERMS["wiener_double"]])[0]


def tree_wiener_linear(tree: Graph, w: Sequence[Weight]) -> Weight:
    """Product-weighted Wiener index of a tree: sum of w(S1) w(S2) over edges."""
    check_weights(tree, w)
    ends = tree.edge_array
    return _tree_term_sums(
        tree.n, *ends.T, {"a": _scaled_array(w)}, [INDEX_TERMS["wiener_weighted"]]
    )[0]


# ------------------------------------------------------ structural quotients


def _quotient(
    n: int,
    keep_u: np.ndarray,
    keep_v: np.ndarray,
    cut_u: np.ndarray,
    cut_v: np.ndarray,
    blocks: Sequence[int] = (0,),
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Quotient by the edges (cut_u, cut_v) of the graph on n vertices that
    also has the edges (keep_u, keep_v), checked to be one tree per block.

    ``blocks`` are the first vertices of consecutive vertex blocks that no
    edge leaves.  Components are numbered by smallest vertex, so each
    block's components are consecutive.  Returns the component count of
    every block, the component of every vertex and the quotient's edges
    (qu < qv), sorted.
    """
    ncomp, labels = component_labels(n, keep_u, keep_v)
    cu, cv = labels[cut_u], labels[cut_v]
    if np.any(cu == cv):
        raise NotATreeError("edge class does not separate its components")
    # a stable sort is adaptive: the codes come in nearly sorted
    codes = np.sort(np.minimum(cu, cv) * ncomp + np.maximum(cu, cv), kind="stable")
    codes = codes[np.flatnonzero(np.diff(codes, prepend=-1))]
    qu, qv = codes // ncomp, codes % ncomp
    firsts = labels[list(blocks)]
    sizes = np.diff(firsts, append=ncomp).tolist()
    for size, count in zip(sizes, np.diff(np.searchsorted(qu, firsts), append=qu.size)):
        if count != size - 1:
            raise NotATreeError(f"quotient has {count} edges on {size} components, not a tree")
    return sizes, labels, qu, qv


def _component_sums(labels: np.ndarray, ncomp: int, w: np.ndarray) -> np.ndarray:
    """Per-component totals of w in w's own dtype; an int64 w must keep
    sum|w| below 2^63 (``_scaled_array`` keeps it below 2^62, and the
    structural weights are small multiples of degrees)."""
    out = np.zeros(ncomp, dtype=w.dtype)
    np.add.at(out, labels, w)
    return out


@dataclass(frozen=True, eq=False)
class QuotientTree:
    """One double vertex-weighted quotient tree of a structural edge class.

    The tree is held in arrays: ``n`` vertices, the edges (``qu`` < ``qv``,
    sorted) and the weights (``a_array``: component degree sums,
    ``b_array``: component vertex counts).  ``tree``, ``a``, ``b`` and
    ``component_of`` are built from them on first use.
    """

    n: int
    qu: np.ndarray
    qv: np.ndarray
    a_array: np.ndarray
    b_array: np.ndarray
    node_labels: np.ndarray = field(repr=False)  # (hexagon, node) -> tree vertex
    corner_node: np.ndarray = field(repr=False)  # corner -> node of its hexagon

    @cached_property
    def tree(self) -> Graph:
        return Graph(self.n, np.column_stack((self.qu, self.qv)), validate=False)

    @cached_property
    def a(self) -> tuple[int, ...]:
        return tuple(self.a_array.tolist())

    @cached_property
    def b(self) -> tuple[int, ...]:
        return tuple(self.b_array.tolist())

    @cached_property
    def component_of(self) -> np.ndarray:
        """Original vertex -> tree vertex."""
        return self.node_labels[:, self.corner_node].ravel()


# Cutting the two class-c edges of a hexagon (c = 1..3) leaves two paths of
# three corners; _HALF[c][k] is the path of corner k, 0 for the one holding
# corner 0.  The connector class cuts no hexagon.
_HALF = {c: np.array([(k - c) % 6 < 3 for k in range(6)], dtype=np.int32) for c in (1, 2, 3)}
_HALF[4] = np.zeros(6, dtype=np.int32)


def quotient_trees(
    ph: Phenylene,
) -> tuple[QuotientTree, QuotientTree, QuotientTree, QuotientTree]:
    """The four double vertex-weighted quotient trees of a phenylene.

    Trees 1..3 quotient by the hexagon-edge direction classes, tree 4 by the
    connector class; tree 4 is isomorphic to the inner dual of the squeeze.
    Weights: a = component degree sums, b = component vertex counts.

    The parts that a class leaves whole are contracted first: each half of
    a hexagon for classes 1..3, each hexagon for class 4.  Only connectors
    join these nodes.  The three direction classes are labelled in one
    pass, side by side: class c's node 2h(c-1) + 2i + _HALF[c][k] holds
    corner k of hexagon i.  Nodes are numbered in the order of their
    smallest vertex, so the components are numbered as on the vertices.
    """
    h = ph.hexagon_count
    hexagon, corner = ph._con_hexagon, ph._con_corner  # the connectors' ends
    halves = np.concatenate(
        [2 * h * (c - 1) + 2 * hexagon + _HALF[c][corner] for c in (1, 2, 3)], axis=1
    )
    pairs = 2 * np.arange(3 * h, dtype=hexagon.dtype)
    sizes, labels, qu, qv = _quotient(
        6 * h, halves[0], halves[1], pairs, pairs + 1, (0, 2 * h, 4 * h)
    )
    # class 4 leaves no edge between hexagons: each is its own component
    (size4,), labels4, qu4, qv4 = _quotient(h, hexagon[0, :0], hexagon[1, :0], *hexagon)
    # a node's degree sum: two per vertex from the hexagon edges, one per connector end
    a = _component_sums(labels, sum(sizes), 6 + np.bincount(halves.ravel(), minlength=6 * h))
    b = _component_sums(labels, sum(sizes), np.full(6 * h, 3, dtype=np.int64))
    a4 = 12 + np.bincount(hexagon.ravel(), minlength=h)
    trees = []
    for c, first, size in zip((1, 2, 3), np.cumsum(sizes) - sizes, sizes):
        edges = slice(*np.searchsorted(qu, [first, first + size]))
        comps = slice(first, first + size)
        nodes = labels[2 * h * (c - 1):2 * h * c].reshape(h, 2) - first
        trees.append(QuotientTree(
            size, qu[edges] - first, qv[edges] - first, a[comps], b[comps], nodes, _HALF[c]
        ))
    trees.append(QuotientTree(
        size4, qu4, qv4, a4, np.full(h, 6, dtype=np.int64), labels4[:, None], _HALF[4]
    ))
    return tuple(trees)


def tree_term_values(
    ph: Phenylene,
    terms: Sequence[tuple[str, str | None]],
    weights: dict[str, Sequence[Weight]],
) -> list[tuple[int, list[Weight]]]:
    """Every term on each of the four quotient trees, with the tree's vertex
    count.

    Terms name vectors as ``INDEX_TERMS`` does: "deg" and "1" are the
    degree and vertex-count sums that each tree carries (``a_array``,
    ``b_array``), any other name a weight on the phenylene's vertices,
    scaled once and summed onto each tree's vertices through
    ``component_of``.
    """
    scaled = {v: _scaled_array(w) for v, w in weights.items()}
    out = []
    for t in quotient_trees(ph):
        sides = {"deg": (t.a_array, 1, False), "1": (t.b_array, 1, False)}
        for v, (w, scale, fraction) in scaled.items():
            sides[v] = _component_sums(t.component_of, t.n, w), scale, fraction
        out.append((t.n, _tree_term_sums(t.n, t.qu, t.qv, sides, terms)))
    return out


def dd_gut_via_trees(ph: Phenylene) -> tuple[int, int]:
    """Degree distance and Gutman index from the four quotient trees (O(n))."""
    per_tree = tree_term_values(ph, [INDEX_TERMS["degree_distance"], INDEX_TERMS["gutman"]], {})
    return sum(dd for _, (dd, _) in per_tree), sum(gut for _, (_, gut) in per_tree)


def dd_gut_via_squeeze(cells: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Degree distance and Gutman index from the squeeze and inner dual.

    DD = W(B, w1, w2) + W(T, w3, w4) and Gut = W(B, w1) + W(T, w3), with the
    benzenoid terms evaluated over its three direction-class quotient trees.
    """
    benz = build_benzenoid(cells)
    n, h = len(benz._first_corner), len(benz.placement)
    eu, ev = benz._eu, benz._ev
    di, dj = benz._dual
    w1, w2, w3, w4 = _squeeze_arrays(
        np.bincount(np.concatenate((eu, ev)), minlength=n),
        np.bincount(np.concatenate((di, dj)), minlength=h),
    )
    # W(x, w) and W*(x) are the DD and Gut terms with x as "deg", w as "1"
    terms = [INDEX_TERMS["degree_distance"], INDEX_TERMS["gutman"]]
    dd, gut = _tree_term_sums(h, di, dj, {"deg": (w3, 1, False), "1": (w4, 1, False)}, terms)
    for c in (1, 2, 3):
        cut = benz._direction == c
        (ncomp,), labels, qu, qv = _quotient(n, eu[~cut], ev[~cut], eu[cut], ev[cut])
        sums = {
            v: (_component_sums(labels, ncomp, w), 1, False) for v, w in (("deg", w1), ("1", w2))
        }
        dd_c, gut_c = _tree_term_sums(ncomp, qu, qv, sums, terms)
        dd += dd_c
        gut += gut_c
    return dd, gut


def parse_placement(text: str) -> BenzenoidPlacement:
    """Parse the placement file format: one "q r" cell per line, '#' comments.

    A text that ``read_int_table`` reads becomes the placement's cell array
    directly; any other text takes the line reader, whose errors name the
    offending line.  Both raise the placement's own faults (no cells, a
    repeated cell) as ``ParseError``.
    """
    table = read_int_table(text, (2,))
    try:
        if table is not None:
            return BenzenoidPlacement._from_array(table)
        return BenzenoidPlacement.of(_read_cell_lines(text))
    except PlacementError as exc:
        raise ParseError(str(exc)) from None


def _read_cell_lines(text: str) -> list[tuple[int, int]]:
    """The line-by-line placement reader."""
    cells = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'q r', got {line!r}")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers") from None
    return cells


def format_placement(placement: BenzenoidPlacement) -> str:
    return "\n".join(f"{q} {r}" for q, r in placement.cells) + "\n"
