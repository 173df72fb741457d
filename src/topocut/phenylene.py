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
evaluated by one Euler-tour kernel, ``_tree_term_sums``, that yields the
split sums of a whole term list (W(a,b), W*(a), ...) from one tour in exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .graph import Graph, ParseError, component_labels, degree_vector, read_int_table
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


class NotATreeError(ValueError):
    """A graph handed to a tree-only routine is not a tree."""


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
    _degrees: np.ndarray
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

    def hexagon_of_vertex(self, v: int) -> int:
        return v // 6

    def is_connector(self, edge_index: int) -> bool:
        return int(self.edge_class[edge_index]) == 4


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


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number equal keys by the position of their first occurrence.

    Returns the number of every key and, per number, that first position.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(order.size, dtype=np.int64)
    number[order] = np.arange(order.size)
    return number[inverse], first[order]


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
    vertex, first_corner = _first_appearance((x * (int(y.max()) + 1) + y).ravel())
    ends = vertex.reshape(-1, 6)
    u, v = ends.ravel(), np.roll(ends, -1, axis=1).ravel()  # edge k: corners k, k+1
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first_edge = _first_appearance(lo * first_corner.size + hi)
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
    degs = np.bincount(np.concatenate((eu, ev)), minlength=6 * h)
    return Phenylene(placement, ecls, eu, ev, degs, con_hexagon, con_corner)


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


# --------------------------------------------------------------- tree kernel

# The int64 kernel runs only while T * T stays below this, where T is the
# largest sum|w| of the weights in use: every subtree sum is then at most T
# and every per-edge term at most 4 T^2 < 2^62 in absolute value.  Past it
# the kernel runs on object arrays.
_INT64_SQUARE_LIMIT = 1 << 60


def _int64_bound(*ws: np.ndarray) -> int | None:
    """T = the largest sum|w| when the int64 kernel is safe, else None."""
    if any(w.dtype != np.int64 for w in ws):
        return None
    peak = max((max(int(w.max()), -int(w.min())) for w in ws), default=0)
    if max(map(len, ws), default=0) * peak >= 1 << 63:  # sum|w| itself could overflow
        return None
    total = max((int(np.abs(w).sum()) for w in ws), default=0)
    return total if total * total < _INT64_SQUARE_LIMIT else None


def _exact_sum(terms: np.ndarray, bound: int) -> int:
    """Exact sum of fewer than 2^31 int64 entries of absolute value at most
    ``bound`` < 2^62.  When the plain sum could overflow, the high and the
    low 31 bits of the entries are summed apart, and neither sum can."""
    if len(terms) * bound < 1 << 63:
        return int(terms.sum())
    return (int(np.sum(terms >> 31)) << 31) + int(np.sum(terms & 0x7FFFFFFF))


def _tree_split_sums(
    ncomp: int, qu: np.ndarray, qv: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[Weight, Weight, Weight]:
    """W(a, b), W*(a) and W*(b) of a tree (see ``_tree_term_sums``): a
    quotient tree's shares of DD, Gut and W at once."""
    terms = [("a", "b"), ("a", None), ("b", None)]
    return tuple(_tree_term_sums(ncomp, qu, qv, {"a": a, "b": b}, terms))


def _tree_term_sums(
    ncomp: int,
    qu: np.ndarray,
    qv: np.ndarray,
    weights: dict[str, np.ndarray],
    terms: Iterable[tuple[str, str | None]],
) -> list[Weight]:
    """Split sums of the tree on vertices 0..ncomp-1 with edges (qu, qv).

    Each term (x, y) names two arrays of ``weights``, one value per tree
    vertex, and gives the sum over edges of x(S1) y(S2) + x(S2) y(S1), where
    S1, S2 are the two sides of the edge: W(x, y) of the tree.  A term
    (x, None) gives the sum of x(S1) x(S2), which is W*(x).

    One Euler tour gives every subtree.  The 2(n-1) arcs are laid out in
    CSR order by tail, each with its twin; the tour follows an arc u->v
    with the arc after v->u in v's row, cyclically.  ``breadth_first_order``
    walks that cycle from the root's first arc in O(n); a tour shorter than
    2(n-1) arcs means the edges do not form a tree.  Of an edge's two arcs
    the earlier goes down to a child, the down arcs in tour order list the
    children in preorder, and a child's subtree is the next (rank of up arc
    - rank of down arc + 1) / 2 preorder places, so one prefix sum over the
    preorder gives every subtree sum.

    Exact: int64 arrays only under ``_INT64_SQUARE_LIMIT``, object arrays of
    Python ints or Fractions otherwise; no float is involved.
    """
    terms = list(terms)
    if ncomp == 1:
        return [0] * len(terms)
    m = ncomp - 1
    if qu.size != m:
        raise NotATreeError(f"graph has {qu.size} edges on {ncomp} vertices, not a tree")
    arcs = 2 * m  # arc x runs qu[x] -> qv[x] for x < m, and arc x + m back
    idx = np.int32 if arcs < 1 << 31 else np.int64
    tail = np.concatenate((qu, qv), dtype=idx)
    counts = np.bincount(tail, minlength=ncomp)
    if not counts.all():  # an isolated vertex
        raise NotATreeError("graph is disconnected, not a tree")
    order = np.argsort(tail, kind="stable").astype(idx)  # CSR position -> arc
    where = np.empty(arcs, dtype=idx)  # arc -> CSR position
    where[order] = np.arange(arcs, dtype=idx)
    order += m  # now the twin arc of each position
    order[order >= arcs] -= arcs
    head = tail[order]
    twin = where[order]
    # the tour goes on at the position after the twin, cyclically in its row
    ends = np.cumsum(counts)
    succ = np.arange(1, arcs + 1, dtype=idx)
    succ[ends - 1] = ends - counts
    succ = succ[twin]
    cycle = csr_matrix((np.ones(arcs), succ, np.arange(arcs + 1, dtype=idx)), shape=(arcs, arcs))
    tour = breadth_first_order(cycle, 0, directed=True, return_predecessors=False)
    if tour.size != arcs:
        raise NotATreeError("graph is disconnected, not a tree")
    rank = np.empty(arcs, dtype=idx)
    rank[tour] = np.arange(arcs, dtype=idx)
    later = rank[twin[tour]]
    down = np.flatnonzero(later > np.arange(arcs, dtype=idx))  # preorder -> rank
    child = head[tour[down]]
    stop = np.arange(1, m + 1) + (later[down] - down - 1) // 2
    used = {v: weights[v] for term in terms for v in term if v is not None}
    bound = _int64_bound(*used.values())
    sides = {}  # per weight: every edge's subtree side and the rest
    for v, w in used.items():
        if bound is None:
            w = w.astype(object)
        prefix = np.zeros(m + 1, dtype=w.dtype)
        prefix[1:] = w[child]
        np.cumsum(prefix, out=prefix)
        below = prefix[stop] - prefix[:-1]
        sides[v] = below, w.sum() - below
    out = []
    for x, y in terms:
        (sx, rx), (sy, ry) = sides[x], sides[x if y is None else y]
        edges = sx * rx if y is None else sx * ry + rx * sy
        out.append(edges.sum() if bound is None else _exact_sum(edges, 4 * bound * bound))
    return out


def _weight_array(w: Sequence[Weight]) -> np.ndarray:
    """Weights as int64 when all are integers and every sum of them fits
    (len(w) max|w| < 2^63), else as objects: Python ints or Fractions."""
    if all(type(x) is int for x in w):  # the usual case, with no isinstance per weight
        ints = list(w)
    elif all(isinstance(x, (int, np.integer)) for x in w):
        ints = [int(x) for x in w]
    else:
        return np.array(list(w), dtype=object)
    dtype = np.int64 if len(ints) * max(map(abs, ints), default=0) < 1 << 63 else object
    return np.array(ints, dtype=dtype)


def _graph_split_sums(
    tree: Graph, a: Sequence[Weight], b: Sequence[Weight]
) -> tuple[Weight, Weight, Weight]:
    """``_tree_split_sums`` of a tree given as a Graph with weight sequences."""
    if tree.m != tree.n - 1:
        raise NotATreeError(f"graph has {tree.m} edges on {tree.n} vertices, not a tree")
    check_weights(tree, a)
    check_weights(tree, b)
    ends = tree.edge_array.astype(np.int64)
    return _tree_split_sums(tree.n, ends[:, 0], ends[:, 1], _weight_array(a), _weight_array(b))


def tree_wiener_double_linear(
    tree: Graph, a: Sequence[Weight], b: Sequence[Weight]
) -> Weight:
    """Double-weighted Wiener index of a tree in O(n).

    Every tree edge is its own theta-class, so the index is the sum over
    edges of a(S1) b(S2) + a(S2) b(S1) for the two sides S1, S2 of the edge;
    ``_tree_split_sums`` gives all splits from one Euler tour.
    """
    return _graph_split_sums(tree, a, b)[0]


def tree_wiener_linear(tree: Graph, w: Sequence[Weight]) -> Weight:
    """Product-weighted Wiener index of a tree: sum of w(S1) w(S2) over edges."""
    return _graph_split_sums(tree, w, w)[1]


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
    len(w) max|w| below 2^63 (the structural weights are small multiples of
    degrees)."""
    out = np.zeros(ncomp, dtype=w.dtype)
    np.add.at(out, labels, w)
    return out


def _class_split_sums(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    in_class: np.ndarray,
    a_vec: np.ndarray,
    b_vec: np.ndarray,
) -> tuple[Weight, Weight, Weight]:
    """Split sums of one edge class's quotient tree, weighted by the
    component totals of a_vec and b_vec."""
    keep = ~in_class
    (ncomp,), labels, qu, qv = _quotient(n, eu[keep], ev[keep], eu[in_class], ev[in_class])
    a = _component_sums(labels, ncomp, a_vec)
    b = _component_sums(labels, ncomp, b_vec)
    return _tree_split_sums(ncomp, qu, qv, a, b)


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

    def split_sums(self) -> tuple[Weight, Weight, Weight]:
        """W(a, b), W*(a) and W*(b) of the tree: its shares of DD, Gut and W."""
        return _tree_split_sums(self.n, self.qu, self.qv, self.a_array, self.b_array)

    def term_sums(
        self, weights: dict[str, np.ndarray], terms: Iterable[tuple[str, str | None]]
    ) -> list[Weight]:
        """Every term over named per-tree-vertex weights (``_tree_term_sums``)."""
        return _tree_term_sums(self.n, self.qu, self.qv, weights, terms)


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


def component_sums(trees: Sequence[QuotientTree], w: Sequence[Weight]) -> list[np.ndarray]:
    """Each tree's totals per tree vertex (``component_of``) of a weight on
    the phenylene's vertices, exact in the dtype of ``_weight_array``."""
    arr = _weight_array(w)
    return [_component_sums(t.component_of, t.n, arr) for t in trees]


def dd_gut_via_trees(ph: Phenylene) -> tuple[int, int]:
    """Degree distance and Gutman index from the four quotient trees (O(n))."""
    sums = [t.split_sums() for t in quotient_trees(ph)]
    return sum(s[0] for s in sums), sum(s[1] for s in sums)


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
    dd, gut, _ = _tree_split_sums(h, di, dj, w3, w4)
    for c in (1, 2, 3):
        dd_c, gut_c, _ = _class_split_sums(n, eu, ev, benz._direction == c, w1, w2)
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
