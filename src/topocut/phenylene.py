"""Catacondensed benzenoid systems on the hexagonal lattice, phenylenes,
and linear-time computation of their degree distance and Gutman index.

Cells live in axial coordinates (q, r).  Corner k and edge k (corners k
and k+1) of cell i are slot 6i+k, and neighbour k shares edge k: which
corners and edges adjacent cells share is read from the inner dual alone,
with no corner coordinates (``_cell_corners`` places a corner only to name
it in an error).  Hexagon edges fall into three parallel direction
classes (1, 2, 3); the squares that separate adjacent hexagons of a
phenylene contribute the connector class 4.  Each of the four classes is a
union of theta*-classes, and the quotient by each class is a tree, which is
what makes the O(n) route work.

The phenylene route is array code from end to end: a placement is parsed
into an (h, 2) array, sorted by one key per cell, validated by one table of
neighbours and stored as its inner dual (i, j, k) and direction masks
(vertex 6i+k is corner k of hexagon i); the connectors, the edge arrays and
the ``Graph`` are built only when read.  All four quotient trees come
from one Euler tour of the inner dual and its runs (``_Runs``): every dual
edge is a run edge of one direction class, every run is one edge of that
class's tree, and the dual's subtree sums give every split.  The runs are
straight segments along lattice lines, numbered by one sort of each class's
dual edges (``_sorted_runs``), with no component labelling.  The split-sum
kernel of :mod:`topocut.exact` turns the splits into one 4 x pairs array
over the rows of a solve's weight matrix, a row per tree as the cut engine
gives a row per block, divided back once per index under the same guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .cut_method import INDEX_TERMS, column_values, index_pairs, term_pairs
from .exact import (  # NotATreeError is re-exported: the tree routines raise it
    NotATreeError, Pair, Weights, _euler_tour, _exact_dtype, _int_array, _split_bound,
    _split_sums, _subtree_sums, _tree_sums, column_sums, scale_weights,
)
from .graph import Graph, ParseError, PlacementError, component_labels, read_int_rows
from .indices import Weight, check_weights
from .theta import QuotientGraph, _quotient, quotient

# Corner k of a cell centred at (X, Y) is (X, Y) + CORNER_OFFSETS[k].
# Hexagon edge k joins corners k and k+1 (mod 6) and has direction k % 3 + 1.
CORNER_OFFSETS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))

# Neighbour k (axial offset) shares hexagon edge k; the shared corners are
# corner k and corner k+1 of this cell, seen by the neighbour as corners
# (k+4) % 6 and (k+3) % 6 respectively.
NEIGHBOR_OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _cell_array(cells: np.ndarray) -> np.ndarray:
    """An (h, 2) cell array as int64, or as Python ints (object) when int64
    cannot hold twice some coordinate (so that no difference of two
    coordinates can overflow)."""
    top = max(int(cells.max()), -int(cells.min())) if cells.size else 0
    return cells.astype(_exact_dtype(2 * top), copy=False)


def _grid_axis(values: np.ndarray) -> np.ndarray:
    """One axis of the cells on a compact int64 grid starting at 0.

    Gaps wider than 2 close to 2.  Cells two or more apart on one axis
    neither touch nor share a corner, and order along the axis is kept, so
    sorting, adjacency and shared corners are those of the input.
    """
    lo = values.min()
    if values.max() - lo <= 2 * len(values):
        return (values - lo).astype(np.int64, copy=False)
    uniq, inverse = np.unique(values, return_inverse=True)
    steps = np.minimum(np.diff(uniq), 2)
    return np.concatenate(([0], np.cumsum(steps))).astype(np.int64)[inverse]


def _cell_order(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """An (h, 2) cell array's axes on the compact grid of ``_grid_axis``,
    the stable order that sorts the cells by one key per cell, (q, r) on
    that grid, and the places in that order of every cell equal to the one
    before it."""
    q, r = _grid_axis(raw[:, 0]), _grid_axis(raw[:, 1])
    key = q * (int(r.max()) + 1) + r
    order = np.argsort(key, kind="stable")  # adaptive: cells often come in sorted
    key = key.take(order)
    return q, r, order, np.flatnonzero(key[1:] == key[:-1]) + 1


@dataclass(frozen=True, eq=False, repr=False)
class BenzenoidPlacement:
    """A set of hexagon cells in axial coordinates, stored sorted.

    ``coords`` holds the cells as an (h, 2) array sorted by (q, r): int64,
    or Python ints when some coordinate reaches 2^61.  ``grid`` holds the
    same cells, in the same order, on the compact grid of ``_grid_axis``,
    stored column by column so that each axis is a contiguous array; the
    array routes work on it.  ``cells``, the cells as a tuple of (q, r)
    tuples, is built on first use; equality and hashing go by it.
    """

    coords: np.ndarray
    grid: np.ndarray

    @classmethod
    def of(cls, cells: Iterable[tuple[int, int]]) -> "BenzenoidPlacement":
        if isinstance(cells, BenzenoidPlacement):
            return cells
        cells = _int_array([(int(q), int(r)) for q, r in cells]).reshape(-1, 2)
        return cls._from_array(_cell_array(cells))

    @classmethod
    def _from_array(cls, raw: np.ndarray) -> "BenzenoidPlacement":
        """Sort an (h, 2) cell array (``_cell_order``) and reject an empty
        or repeated cell."""
        if not len(raw):
            raise PlacementError("placement has no cells")
        q, r, order, repeats = _cell_order(raw)
        if repeats.size:
            raise PlacementError(f"duplicate cell {tuple(raw[order[repeats[0]]].tolist())}")
        return cls(raw.take(order, axis=0), np.stack((q.take(order), r.take(order))).T)

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

    The inner dual identifies the corners and edges that adjacent cells
    share (``build_benzenoid``).  Vertices are numbered, and edges ordered,
    by first appearance in a scan of the cells in placement order and of
    each cell's corners and edges in order.  The arrays are the benzenoid,
    and the squeeze route reads them alone; ``graph`` and ``inner_dual``
    are built from them on first use.
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
    def inner_dual(self) -> Graph:  # one vertex per cell, in placement order
        di, dj = self._dual
        return Graph(len(self.placement), np.column_stack((di, dj)))


# Hexagon i's six edges, in order: corners (k, k+1) for k < 5, then (0, 5).
_HEX_U = np.array([0, 1, 2, 3, 4, 0], dtype=np.int64)
_HEX_V = np.array([1, 2, 3, 4, 5, 5], dtype=np.int64)
_HEX_CLASS = np.array([1, 2, 3, 1, 2, 3], dtype=np.int64)
# A dual edge (i, j, k) has connectors from corners k, k+1 of i to k+4, k+3 of j.
_CONNECTOR_CORNERS = np.array([[0, 1], [4, 3]], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Phenylene:
    """A phenylene: 6h vertices (six per hexagon), 8h-2 edges.

    Vertex 6i+k is corner k of hexagon i.  Only the inner dual is stored,
    as ``_validated_dual`` gives it: ``_dual`` holds its edges (i, j, k),
    two connectors over each, and ``_mask`` each hexagon's direction mask.
    The trees route reads nothing else.  The edge arrays are built from the
    dual on first use: ``_eu``, ``_ev`` hold the edge ends in
    ``graph.edges`` order (the six edges of each hexagon, then the
    connectors), ``edge_class`` holds 1..3 for hexagon edges (the direction
    of the corresponding benzenoid edge) and 4 for connectors, and
    ``graph`` is the phenylene's ``Graph``.
    """

    placement: BenzenoidPlacement
    _dual: tuple[np.ndarray, np.ndarray, np.ndarray]
    _mask: np.ndarray

    def _edge_ends(self, hexagon_corners: np.ndarray, end: int) -> np.ndarray:
        base = 6 * np.arange(self.hexagon_count, dtype=np.int64)[:, None]
        k = self._dual[2][:, None]
        connectors = 6 * self._dual[end][:, None] + (k + _CONNECTOR_CORNERS[end]) % 6
        return np.concatenate(((base + hexagon_corners).ravel(), connectors.ravel()))

    @cached_property
    def _eu(self) -> np.ndarray:
        return self._edge_ends(_HEX_U, 0)

    @cached_property
    def _ev(self) -> np.ndarray:
        return self._edge_ends(_HEX_V, 1)

    @cached_property
    def edge_class(self) -> np.ndarray:
        connectors = np.full(self.m - self.n, 4, dtype=np.int64)
        return np.concatenate((np.tile(_HEX_CLASS, self.hexagon_count), connectors))

    @cached_property
    def graph(self) -> Graph:
        return Graph(self.n, np.column_stack((self._eu, self._ev)), validate=False)

    @property
    def n(self) -> int:
        return 6 * len(self.placement)

    @property
    def m(self) -> int:
        return 6 * len(self.placement) + 2 * self._dual[0].size

    @property
    def hexagon_count(self) -> int:
        return len(self.placement)


def _cell_corners(q: int, r: int) -> list[tuple[int, int]]:
    cx, cy = 3 * q, 2 * r + q
    return [(cx + dx, cy + dy) for dx, dy in CORNER_OFFSETS]


# Cells sorted by (q, r) have their later neighbours in directions 0, 1
# and 5, and their earlier ones in the opposite directions 3, 4 and 2.
_LATER = np.array([0, 1, 5], dtype=np.uint8)


def _later_neighbours(grid: np.ndarray) -> np.ndarray:
    """(h, 3) index of the neighbour of each cell in directions 0, 1 and 5
    (``_LATER``), -1 if absent.

    The cells are sorted by (q, r), so their keys (q+1) width + (r+1)
    increase.  The neighbour (0, 1) can then only be the next cell, and
    (1, 0) can only sit just after (1, -1): one binary search finds all
    three.  Each column is written as (index + 1) * found - 1.
    """
    q, r = grid[:, 0], grid[:, 1]
    h, width = len(grid), int(r.max()) + 3
    padded = np.empty(h + 1, dtype=np.int64)  # the keys, then -1, which no key is
    keys = padded[:-1]
    np.multiply(q, width, out=keys)
    keys += r
    keys += width + 1
    padded[-1] = -1
    nbr = np.empty((h, 3), dtype=np.int64)
    np.multiply(np.arange(2, h + 2), padded[1:] - keys == 1, out=nbr[:, 1])
    wanted = keys + (width - 1)
    at = np.searchsorted(keys, wanted)  # at most h, where padded holds -1
    hit = padded.take(at) == wanted
    at += 1
    np.multiply(at, hit, out=nbr[:, 2])
    at += hit
    wanted += 1
    np.multiply(at, padded.take(at - 1) == wanted, out=nbr[:, 0])
    nbr -= 1
    return nbr


def _validated_dual(
    placement: BenzenoidPlacement,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The inner dual's edges (i, j, k) with i < j and j the neighbour of
    cell i in direction k, ordered by (i, k), and each cell's direction
    mask (uint8, bit d set when the cell has a neighbour in direction d),
    both from the one table of ``_later_neighbours``, read flat.

    Raises for a lattice vertex in three cells (naming the corner at which
    a cell-by-cell, corner-by-corner scan first sees its third cell), a
    disconnected system, or an inner dual that is not a tree.
    """
    h = len(placement)
    later = _later_neighbours(placement.grid).ravel()
    hit = (later >= 0).view(np.uint8)
    flat = np.flatnonzero(hit)
    di, column = np.divmod(flat, 3)
    dj, dk = later.take(flat), _LATER.take(column)
    # The earlier neighbours are the later ones' other ends: bit 3 of a
    # direction-0 neighbour, 2 of a direction-5 one, 4 of the cell after a
    # direction-1 one (slot h takes the writes of the absent ones, -1).
    mask = np.zeros(h + 1, dtype=np.uint8)
    mask[later[0::3]] = 1 << 3
    mask[later[2::3]] |= 1 << 2
    mask[1:h] |= hit[1::3][:-1] << 4
    mask = mask[:h]
    for c, d in enumerate(_LATER.tolist()):
        mask |= hit[c::3] << d
    # Corner k of cell i also lies in its neighbours k-1 and k; a scan first
    # sees it in three cells at the last of them: corner 3 or 4 of a cell
    # with earlier neighbours 2, 3 or 3, 4.
    corner_3, corner_4 = (mask & 0b1100) == 0b1100, (mask & 0b11000) == 0b11000
    third = np.flatnonzero(corner_3 | corner_4)
    if third.size:
        i = int(third[0])
        corner = _cell_corners(*placement.cells[i])[3 if corner_3[i] else 4]
        raise PlacementError(f"internal lattice vertex at {corner}")
    # Every cell but the first with an earlier neighbour (mask bits 2 to 4)
    # proves the dual connected: earlier neighbours lead each to the first.
    if not (mask[1:] & 0b11100).all() and component_labels(h, di, dj)[0] != 1:
        raise PlacementError("cells do not form a connected system")
    if di.size != h - 1:
        raise PlacementError("inner dual is not a tree")
    return di, dj, dk, mask


def build_benzenoid(cells: Iterable[tuple[int, int]]) -> Benzenoid:
    """Build the benzenoid graph of a catacondensed placement plus its inner dual.

    The benzenoid is the phenylene with its connectors contracted: corner k
    and edge k of cell i start as slot 6i + k, and a dual edge (i, j, k)
    joins corners k, k+1 of i to corners k+4, k+3 of j and edge k of i to
    edge k+3 of j.  One ``component_labels`` call for the corners and one
    for the edges number them by smallest slot, their first appearance, and
    each number's first slot is where the running maximum steps up.
    """
    ph = build_phenylene(cells)
    di, dj, dk = ph._dual
    vertex = component_labels(ph.n, ph._eu[ph.n:], ph._ev[ph.n:])[1]
    edge = component_labels(ph.n, 6 * di + dk, 6 * dj + (dk + 3) % 6)[1]
    first_corner, first_edge = (
        np.flatnonzero(np.diff(np.maximum.accumulate(x), prepend=-1)) for x in (vertex, edge)
    )
    u = vertex.take(ph._eu[first_edge])  # hexagon edge slot 6i + k joins corners k, k+1
    v = vertex.take(ph._ev[first_edge])
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    return Benzenoid(ph.placement, lo, hi, first_edge % 3 + 1, (di, dj), first_corner)


def build_phenylene(cells: Iterable[tuple[int, int]]) -> Phenylene:
    """Build the phenylene of a catacondensed placement.

    Each hexagon gets its own six vertex copies; every shared benzenoid edge
    becomes a square via two connector edges between the copies of its
    endpoints.  Edges come in order: the six edges of each hexagon, then
    two connectors per inner-dual edge.  Only the validated inner dual and
    the direction masks are stored; the edges are built when read.
    """
    placement = BenzenoidPlacement.of(cells)
    di, dj, dk, mask = _validated_dual(placement)
    return Phenylene(placement, (di, dj, dk), mask)


def _squeeze_arrays(deg_b: np.ndarray, deg_t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four weight vectors of the squeeze decomposition, from the
    degree arrays of the benzenoid and of the inner dual.

    On the benzenoid: w1 = 4 deg - 6 and w2 = deg - 1 (per-vertex totals of
    the phenylene components that collapse onto each lattice vertex).  On the
    inner dual: w3 = 2 deg + 12 and w4 = 6 (per-hexagon totals).
    """
    return 4 * deg_b - 6, deg_b - 1, 2 * deg_t + 12, np.full(len(deg_t), 6, dtype=np.int64)


# ------------------------------------------------------------- plain trees


def _tree_value(tree: Graph, a: Sequence[Weight], b: Sequence[Weight] | None) -> Weight:
    """W(a, b), or W*(a) when ``b`` is None, of a tree in O(n): every tree
    edge is its own theta-class, so the index is the sum over edges of
    a(S1) b(S2) + a(S2) b(S1) for the two sides S1, S2 of the edge, and
    ``_tree_sums`` gives all splits from one Euler tour."""
    weights, pairs = term_pairs([(a, b)])
    return column_values(_tree_sums(tree.n, *tree.edge_array.T, weights, pairs), weights, pairs)[0]


def tree_wiener_double_linear(
    tree: Graph, a: Sequence[Weight], b: Sequence[Weight]
) -> Weight:
    """Double-weighted Wiener index of a tree in O(n)."""
    check_weights(tree, a)
    check_weights(tree, b)
    return _tree_value(tree, a, b)


def tree_wiener_linear(tree: Graph, w: Sequence[Weight]) -> Weight:
    """Product-weighted Wiener index of a tree: sum of w(S1) w(S2) over edges."""
    check_weights(tree, w)
    return _tree_value(tree, w, None)


# ------------------------------------------------------ structural quotients


def _component_sums(labels: np.ndarray, ncomp: int, w: np.ndarray) -> np.ndarray:
    """Per-component totals of w in w's own dtype; an int64 w must keep
    sum|w| below 2^63 (``Weights`` keeps it below 2^62, and the
    structural weights are small multiples of degrees)."""
    out = np.zeros(ncomp, dtype=w.dtype)
    np.add.at(out, labels, w)
    return out


# Cutting the two class-c edges of a hexagon (c = 1..3) leaves two halves,
# paths of three corners: half 1 holds corners c, c+1, c+2 (mod 6), half 0
# the other three.  _HALF_OF[c - 1, k] says whether corner k is in half 1.
# The connector class cuts no hexagon.
_HALF_OF = np.array([[(k - c) % 6 < 3 for k in range(6)] for c in (1, 2, 3)])
# A dual edge (i, j, k) is a run edge of class k % 3 + 1 and meets one half
# of each end in the other two, (k + 1 + t) % 3 for t = 0, 1 (0-based).  At
# end e (0 for i, corners k, k+1; 1 for j, corners k+4, k+3), code 2k + e:
# _NON_RUN[t][code] is that class and _MEETS[t][code] the half it meets.
_NON_RUN = np.array([[(code // 2 + 1 + t) % 3 for code in range(12)] for t in (0, 1)])
_MEETS = np.array(
    [[_HALF_OF[(code // 2 + 1 + t) % 3, (code // 2 + 4 * (code % 2)) % 6] for code in range(12)]
     for t in (0, 1)]
)
# Bit d of a hexagon's direction mask: a neighbour in direction d, whose
# connectors end at corners d and d+1.  _DEGREE_SUMS[c - 1, mask] is the
# degree sum of half 1 of class c (two per corner and one per connector
# end), and _DEGREE_SUMS[3, mask] the degree sum of the hexagon.
_ENDS_IN_HALF_ONE = _HALF_OF.astype(np.int64) + np.roll(_HALF_OF, -1, axis=1)  # [c - 1, d]
_DEGREE_SUMS = np.array(
    [[6 + sum(ends[d] for d in range(6) if mask >> d & 1) for mask in range(64)]
     for ends in _ENDS_IN_HALF_ONE]
    + [[12 + 2 * mask.bit_count() for mask in range(64)]],
    dtype=np.int64,
)
# The same sums as ``bytes.translate`` tables (every sum is at most 24, so
# a byte holds it): a lookup by mask makes no intp copy of the masks.
_DEGREE_BYTES = [bytes(row.tolist() * 4) for row in _DEGREE_SUMS]


def _degree_sums(row: int, mask: np.ndarray, dtype: type) -> np.ndarray:
    """``_DEGREE_SUMS[row, mask]`` in ``dtype``."""
    sums = mask.tobytes().translate(_DEGREE_BYTES[row])
    return np.frombuffer(sums, dtype=np.uint8).astype(dtype)


@dataclass(frozen=True, eq=False)
class _Runs:
    """The split structure of a phenylene's four quotient trees: what their
    split sums need that no weight changes.

    Every inner-dual edge (i, j, k) is a run edge of exactly one direction
    class, c = k % 3 + 1: the hexagon edges of its square have class c, and
    its two connectors join half s of hexagon i to half s of hexagon j, for
    s = 0 and 1.  A run is a component of class c's run edges, a maximal
    straight segment of cells on one lattice line (``_sorted_runs``), and its
    class-c hexagon edges are the one edge of quotient tree c between the
    run's halves 0 and the run's halves 1; tree c has a vertex more than
    runs.  Every other dual edge joins one half of each end.

    Root the inner dual at hexagon 0.  A run's top hexagon is the one
    nearest the root, and the run's far half is the half of its hexagons at
    the same s as the top's half away from its dual parent (half 0 for the
    root's runs).  The far side of the run's edge holds the run's far
    halves and every dual subtree hanging from them by a non-run edge.  So
    with S1 the sum over the run's halves 1 and the subtrees hanging from
    them, the far side is S1 when the far half is 1, and otherwise the sum
    over the top's subtree minus S1.  Node (c-1) h + x stands for hexagon
    x in class c.

    ``child``, ``stop``: the dual's Euler tour (``_euler_tour``).
    ``bounds``: the first run label of classes 1..3, then the run count.
    ``run``: per node, its run.  ``hang_place``, ``hang_run``: the tour
    places of the subtrees hanging from a half 1, and that half's run, in
    no particular order (they only feed ``np.subtract.at``).  ``far_one``,
    ``top_place``: per run, whether its far half is half 1, and the tour
    place of its top (the edge count for the root's runs).  ``mask``: the
    hexagons' direction masks, from which ``_DEGREE_SUMS`` gives the
    degree sums of a row when it is summed.  ``of`` reads only the stored
    dual and masks, one non-run class at a time, each step a 1-D gather or
    scatter.
    """

    child: np.ndarray
    stop: np.ndarray
    bounds: np.ndarray
    run: np.ndarray
    hang_place: np.ndarray
    hang_run: np.ndarray
    far_one: np.ndarray
    top_place: np.ndarray
    mask: np.ndarray

    @classmethod
    def of(cls, ph: Phenylene) -> "_Runs":
        h = ph.hexagon_count
        di, dj, dk = ph._dual
        edge, child, stop = _euler_tour(h, di, dj)
        run, bounds = _sorted_runs(ph.placement.grid, di, dj, dk)
        # per tour place: its edge's code and its parent, each made in place
        j = dj.take(edge)
        code = dk.take(edge).astype(np.intp)
        code *= 2
        code += child == j
        parent = di.take(edge)
        parent += j
        parent -= child
        del edge, j
        # both non-run classes t at once, a row each
        node = (h * _NON_RUN).take(code, axis=1)
        t, hang_place = _MEETS[:, np.arange(12) ^ 1].take(code, axis=1).nonzero()  # parent's end
        hang_run = run.take(node[t, hang_place] + parent.take(hang_place))
        del t, parent
        node += child
        tops = run.take(node)  # the runs that the place's child tops
        del node
        far_one = np.zeros(int(bounds[-1]), dtype=bool)
        far_one[tops] = (~_MEETS).take(code, axis=1)
        top_place = np.full(int(bounds[-1]), child.size, dtype=np.intp)
        top_place[tops] = np.arange(child.size)
        return cls(child, stop, bounds, run, hang_place, hang_run, far_one, top_place, ph._mask)

    def sides(self, below: np.ndarray, half_ones: Iterable, far: np.ndarray) -> None:
        """The far side of every run edge, per run into ``far``, for a vertex
        weight given by its ``_subtree_sums`` over the tour (``below``) and,
        class by class, its sums on every hexagon's half 1 (an array, or
        one value for every hexagon); ``below`` holds the dual's splits.

        Built in place: the top's subtree sum where the far half is 0, less
        S1, then negated where the far half is 1."""
        h, lo = below.size, 0
        below.take(self.top_place, out=far, mode="clip")  # valid: "clip" is unbuffered
        np.copyto(far, 0, where=self.far_one)
        for half in half_ones:  # not enumerate, whose reused tuple keeps the last one
            np.subtract.at(far, self.run[lo:lo + h], half)
            lo += h
            del half  # before the next class's sums are made
        np.subtract.at(far, self.hang_run, below.take(self.hang_place))
        np.negative(far, out=far, where=self.far_one)


def _sorted_runs(
    grid: np.ndarray, di: np.ndarray, dj: np.ndarray, dk: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The runs of a phenylene from the dual edges (i, j, k) of
    ``_validated_dual``: per node (c-1) h + x, the run of hexagon x in class
    c, and the first run of classes 1..3, then the run count.

    Cell j follows cell i in (q, r) order, so k is 0, 1 or 5, one direction
    per class, and class c's run edges lie along the lattice lines of
    constant r, q or q + r.  Every two cells at consecutive positions on a
    line are adjacent, so a run is a maximal set of consecutive positions
    on one line: one sort of each class's edges by (line, position) puts
    every run's edges in a row, and a run goes on while an edge starts at
    the cell where the one before it ends.  A cell on no edge of the class
    is a run of its own.  The runs of a class are consecutive numbers, in no
    particular order.  Every step is a 1-D gather or scatter.
    """
    h = len(grid)
    q, r = grid[:, 0], grid[:, 1]
    width = int(grid.max()) + 2  # above every position
    run = np.empty(3 * h, dtype=np.int64)
    bounds = [0]
    # the key line * width + position is a q + b r: line r, q, q + r; position q, r, q
    for c, (k, a, b) in enumerate(zip(_LATER.tolist(), (1, width, width + 1), (width, 1, width))):
        edges = (dk == k).nonzero()[0]
        i = di.take(edges)
        key = q.take(i)
        key *= a
        key += r.take(i) * b
        del i
        edges = edges.take(key.argsort())  # distinct keys
        del key
        i, j = di.take(edges), dj.take(edges)
        del edges
        start = np.ones(i.size, dtype=bool)
        np.not_equal(i[1:], j[:-1], out=start[1:])
        edge_run = start.cumsum()
        edge_run += bounds[-1] - 1
        nodes = run[c * h:(c + 1) * h]
        nodes.fill(-1)
        nodes[i] = edge_run
        nodes[j] = edge_run
        alone = (nodes < 0).nonzero()[0]
        first = bounds[-1] + int(np.count_nonzero(start))
        nodes[alone] = np.arange(first, first + alone.size)
        bounds.append(first + alone.size)
    return run, np.array(bounds, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class QuotientTree:
    """The double vertex-weighted quotient tree of one structural edge class
    ``cls`` (1..3: a hexagon-edge direction, 4: the connectors).

    ``n`` is its vertex count and ``runs`` the split structure that the
    four trees share; the trees route reads only these.  For the API and
    the tests, the tree itself comes on first use from ``theta.quotient``
    of the phenylene's graph by the class's edges: ``tree``, ``a``
    (component degree sums) and ``b`` (component vertex counts).
    """

    n: int
    cls: int
    phenylene: Phenylene = field(repr=False)
    runs: _Runs = field(repr=False)

    @cached_property
    def _quotient_graph(self) -> QuotientGraph:
        ph = self.phenylene
        return quotient(ph.graph, np.flatnonzero(ph.edge_class == self.cls).tolist())

    @property
    def tree(self) -> Graph:
        return self._quotient_graph.graph

    @cached_property
    def a(self) -> tuple[int, ...]:
        degrees = np.bincount(self.phenylene.graph.edge_array.ravel(), minlength=self.phenylene.n)
        labels = np.array(self._quotient_graph.component_of, dtype=np.intp)
        return tuple(_component_sums(labels, self.n, degrees).tolist())

    @cached_property
    def b(self) -> tuple[int, ...]:
        return tuple(map(len, self._quotient_graph.members))


def quotient_trees(
    ph: Phenylene,
) -> tuple[QuotientTree, QuotientTree, QuotientTree, QuotientTree]:
    """The four double vertex-weighted quotient trees of a phenylene.

    Trees 1..3 quotient by the hexagon-edge direction classes, tree 4 by the
    connector class; tree 4 is the inner dual.  Weights: a = component
    degree sums, b = component vertex counts.  One Euler tour of the inner
    dual and one sort of its runs along lattice lines (``_Runs``) give every
    tree's vertex count and split structure; the trees' edges and weights
    are built, by ``theta.quotient``, only when read.

    Every quotient is a tree, with no check at run time: ``_validated_dual``
    has proved the inner dual a tree.  The half graph of a class (hexagon
    halves joined by connectors) is then a forest, whose edges lie over
    dual edges, and no component holds both halves of a hexagon; the run
    structure above is exactly that forest's contraction.
    """
    h = ph.hexagon_count
    runs = _Runs.of(ph)
    sizes = np.diff(runs.bounds).tolist()
    return tuple(
        QuotientTree(n, c, ph, runs) for c, n in zip((1, 2, 3, 4), [s + 1 for s in sizes] + [h])
    )


def tree_block_matrix(
    trees: Sequence[QuotientTree], weights: Weights | None, pairs: Sequence[Pair]
) -> tuple[np.ndarray, Weights]:
    """Every pair on each of the four quotient trees of ``quotient_trees``:
    a 4 x len(pairs) array of undivided W(x, y), with W(x, x) for a halved
    pair, as ``CutEngine.block_matrix`` gives one row per block; and a
    ``Weights`` whose scales and Fraction flags divide it back (its rows,
    one column of zeros, are not read).

    The pairs index the rows of a solve's weight matrix (``ROWS``): the
    ones, the degrees, then the rows of ``weights``, a weight matrix over
    the phenylene's vertices.  Each row is summed on every hexagon and,
    class by class, on every half 1, one row at a time, and so onto the
    splits of all four trees at once (``_Runs.sides``).  No row of the
    ones or the degrees is built per vertex: the ones sum to 6 on a hexagon
    and 3 on a half, the degrees to ``_DEGREE_SUMS`` of the direction
    mask, and both are whole, with scale 1.  A weight row keeps its scale
    and bound, and its sums are Fractions where one of its entries is.
    """
    runs, ph = trees[0].runs, trees[0].phenylene
    h = ph.hexagon_count
    scales, bounds, flags = (1, 1), (ph.n, 2 * ph.m), None
    if weights is not None:
        corners = weights.rows.reshape(len(weights.scales), h, 6)
        scales, bounds = scales + weights.scales, bounds + weights.bounds
        if weights.fractions is not None:
            flags = np.array([[False], [False]] + [[f] for f in weights.fractional])
    bound = _split_bound(bounds, pairs)
    dtype = _exact_dtype(bound)

    def hexagon_row(r: int) -> np.ndarray:
        """Row r summed on every hexagon."""
        if r == 0:
            return np.broadcast_to(np.array(6, dtype=dtype), (h,))
        if r == 1:
            return _degree_sums(3, runs.mask, dtype)
        return corners[r - 2].sum(axis=1).astype(dtype, copy=False)

    def half_rows(r: int) -> Iterable:
        """Row r summed, class by class, on every half 1, lazily."""
        if r == 0:
            return (np.array(3, dtype=dtype),) * 3
        if r == 1:
            return (_degree_sums(c, runs.mask, dtype) for c in range(3))
        # half 1 of class c, node (c-1) h + x, holds corners c, c+1, c+2 of hexagon x
        return (corners[r - 2][:, c:c + 3].sum(axis=1).astype(dtype, copy=False) for c in (1, 2, 3))

    used = sorted({r for i, j, _ in pairs for r in (i, j)})
    below = np.empty((len(used), h), dtype=dtype)
    for k, r in enumerate(used):
        _subtree_sums(hexagon_row(r), runs.child, runs.stop, below[k])
    far = np.empty((len(used), int(runs.bounds[-1])), dtype=dtype)  # after every subtree sum
    for k, r in enumerate(used):
        runs.sides(below[k], half_rows(r), far[k])
    bounds_of = zip(runs.bounds[:-1], runs.bounds[1:])
    sides = [far[:, lo:hi] for lo, hi in bounds_of] + [below[:, :-1]]
    local = [(used.index(i), used.index(j), half) for i, j, half in pairs]
    blocks = _split_sums(sides, below[:, -1].tolist(), local, bound)
    return blocks, Weights(np.zeros((len(scales), 1), dtype=np.int64), scales, bounds, flags)


def dd_gut_via_trees(ph: Phenylene) -> tuple[int, int]:
    """Degree distance and Gutman index from the four quotient trees (O(n))."""
    pairs = index_pairs({k: INDEX_TERMS[k] for k in ("degree_distance", "gutman")})
    return tuple(column_values(*tree_block_matrix(quotient_trees(ph), None, pairs), pairs))


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
    pairs = [(0, 1, False), (0, 0, True)]  # W(x, w) and W(x, x) = 2 W*(x)
    blocks = [_tree_sums(h, di, dj, scale_weights(np.stack((w3, w4))), pairs)]
    for c in (1, 2, 3):
        ncomp, labels, qu, qv = _quotient(n, eu, ev, benz._direction == c)
        sums = np.stack([_component_sums(labels, ncomp, w) for w in (w1, w2)])
        blocks.append(_tree_sums(ncomp, qu, qv, scale_weights(sums), pairs))
    dd, gut = column_sums(np.concatenate(blocks))
    return dd, gut // 2


def parse_placement(text: str) -> BenzenoidPlacement:
    """Parse the placement file format: one "q r" cell per line, '#' comments.

    The cells come from ``read_int_rows``, whose errors name the offending
    line; the placement's own faults (no cells, a repeated cell) are raised
    as ``ParseError`` too.
    """
    try:
        return BenzenoidPlacement._from_array(_cell_array(read_int_rows(text, "'q r'")))
    except PlacementError as exc:
        raise ParseError(str(exc)) from None


def format_placement(placement: BenzenoidPlacement) -> str:
    return "\n".join(f"{q} {r}" for q, r in placement.cells) + "\n"
