"""Index computation from quotient graphs over a coarser edge partition.

For a partition {F_1, ..., F_r} of the edge set into unions of whole
theta*-classes, distances decompose as
d(u,v) = sum_i d_{G/F_i}(l_i(u), l_i(v)), and consequently every weighted
Wiener variant decomposes into a sum of the same variant over the (small)
quotient graphs with component-aggregated weights.

Every index is a weight pair: W(a, b) = sum over ordered vertex pairs of
a(u) b(v) d(u,v), and W*(a) = W(a, a) / 2.  :class:`CutEngine` takes each
edge of a pendant tree as a K2 block with the subtree sums as its sides.
It finds every other block quotient at once by contracting the 2-core's
edges in ceil(log2 k) halving levels of its k blocks, with no pass over
the whole graph per block.  It sums the weights of every quotient through
the same levels and evaluates the complete quotients in closed form all
together.  Over theta*'s own classes the core blocks sum to the 2-core's
double-weighted Wiener sum, on the core distance matrix theta* built, so
the largest non-complete quotient is that sum minus the other core blocks;
every other quotient gets one distance matrix.  So a graph with one
non-complete class builds one distance matrix in all.  The weights come
as one scaled integer matrix (:class:`~topocut.exact.Weights`), the block
values leave as one k x terms integer array, and every index is one exact
column sum divided back once, all under the dtype rule of
:mod:`topocut.exact`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact import Pair, Weights, _exact_dtype, _narrowest_dtype, column_sums, weights_of
from .graph import ROW_CHUNK, Graph, component_labels, degree_vector, distance_matrix
from .indices import DoubleWeightedGraph, Weight, check_weights
from .theta import (
    EdgePartition,
    ThetaClasses,
    _check_is_partition,
    _theta_labels,
    validate_coarser,
)

# A term (a, b) is W(a, b); (a, None) is W*(a) = W(a, a) / 2.
Term = tuple[Sequence[Weight], Sequence[Weight] | None]


# Every reported index as a weight pair (x, y) over named vertex vectors, in
# report order: "1" all ones, "deg" the degrees, "a" and "b" the vertex
# weights, and y None for W*(x).  W = W*(1), DD = W(deg, 1), Gut = W*(deg);
# with vertex weights also W*(a), W+(a) = W(a, 1) and W(a, b).
TermNames = dict[str, tuple[str, str | None]]
INDEX_TERMS: TermNames = {
    "wiener": ("1", None),
    "degree_distance": ("deg", "1"),
    "gutman": ("deg", None),
    "wiener_weighted": ("a", None),
    "wiener_plus": ("a", "1"),
    "wiener_double": ("a", "b"),
}
# The rows of a solve's weight matrix, as ``INDEX_TERMS`` names them.
ROWS = {"1": 0, "deg": 1, "a": 2, "b": 3}


def index_pairs(terms: TermNames) -> list[Pair]:
    """Each named term as a pair of rows of a solve's weight matrix."""
    return [(ROWS[x], ROWS[x if y is None else y], y is None) for x, y in terms.values()]


def term_pairs(terms: Sequence[Term]) -> tuple[Weights, list[Pair]]:
    """The terms' vectors as one :class:`Weights`, each distinct vector
    (by identity) one row, and each term as a pair of rows."""
    vectors = list({id(v): v for term in terms for v in term if v is not None}.values())
    rows = {id(v): r for r, v in enumerate(vectors)}
    pairs = [(rows[id(a)], rows[id(a if b is None else b)], b is None) for a, b in terms]
    return weights_of(vectors), pairs


def column_values(values: np.ndarray, weights: Weights, pairs: Sequence[Pair]) -> list[Weight]:
    """Every pair's column of undivided block values summed exactly and
    divided back once; no blocks give the int 0."""
    return [weights.divide(v, *pair) for v, pair in zip(column_sums(values), pairs)]


class CutEngine:
    """An edge partition of one graph with every block quotient's shape
    found by one contraction pass.

    Without ``partition`` the blocks are the theta*-classes: theta*'s label
    array is each edge's block (``block_of``), and its core distance matrix
    is kept for :meth:`block_matrix`.  The pendant trees then stay out of
    the contraction
    (``Graph.peel``).  Each of their edges is a bridge and a class of its
    own, so its quotient is K2, with sides the subtree below the edge and
    the rest.  The contraction runs on the 2-core's edges and classes only.
    A pendant vertex lies in the same component of G - F_i as its core
    vertex for every core block i, so a core quotient's component sums are
    those of the core with each core vertex carrying its hanging subtree
    (:meth:`_fold`).  The core keeps theta*'s order (``Peel.core_ends``),
    and a pendant block's value comes from the folded sums at its vertex
    alone.  A given ``partition`` is contracted whole.

    The blocks are numbered 0..k-1 and contracted by halving the block range
    in L = ceil(log2 k) levels.  Before level l every range R of blocks (the
    block indices sharing their top l bits) has super-vertices: the
    components of G with every edge outside R contracted.  Level l gives
    each super-vertex two copies, one per child range of R, and contracts
    each edge of R whose bit L-l-1 is b in copy 1-b, so one
    ``component_labels`` call over the copies and all m edges yields every
    child's super-vertices.  A connected range with |E_R| edges has at most
    |E_R| + 1 super-vertices, so a level costs O(m + 2^l) and the pass
    O(m log k).  The leaves' super-vertices are the components of G - F_i,
    numbered by smallest contracted vertex: by smallest vertex, as in
    :func:`~topocut.theta.quotient`, when the whole graph is contracted,
    and by smallest core vertex otherwise.  Only the per-level label maps
    are kept, never a k x n table.

    ``sizes`` and ``complete`` give each quotient's vertex count and
    whether it is complete, and ``quotient_edges`` one quotient's edges.
    The components reach :meth:`block_matrix` only as the component sums
    of ``_leaf_sums``.
    """

    def __init__(self, g: Graph, partition: EdgePartition | None = None):
        self._core_distances = None  # theta*'s, rows in g.peel.core order
        if partition is None:
            block_of, self._core_distances = _theta_labels(g)
            k = int(block_of.max(initial=-1)) + 1
        else:
            block_of, k = _check_is_partition(g, partition.blocks), len(partition.blocks)
        self.g = g
        self.block_of = block_of
        # every pendant edge is a theta*-class, and so a block, of its own
        pendant = np.zeros(k, dtype=bool)
        self._peeled = None  # the peeled vertices, when their blocks fold
        if partition is None and g.peel.order.size:
            peel = g.peel
            owner = block_of[peel.edge]
            pendant[owner] = True
            self._peeled = peel.order
            self._up = np.arange(g.n)  # each vertex's parent; core vertices their own
            self._up[peel.order] = peel.parent
            self._pendant_vertex = peel.order[np.argsort(owner)]  # per pendant block
            # core blocks renumbered 0..core_k-1 in order; pendant blocks -1
            self._core_block = np.where(pendant, -1, np.cumsum(~pendant) - 1)
            eu, ev = peel.core_ends.T
            block_of = self._core_block[block_of[peel.core_edges]]
            vertices = peel.core.size
        else:
            self._core_block = np.arange(k)
            eu, ev = g.edge_array.T
            vertices = g.n
        self._core_ids = np.flatnonzero(~pendant)  # the block of each core block
        core_k = self._core_ids.size
        depth = max(core_k - 1, 0).bit_length()  # ceil(log2 k)
        ranges = np.zeros(vertices, dtype=np.int64)  # the block range of each super-vertex
        self._maps = []  # per level: the child super-vertex of copy 2s + c
        for level in range(depth):
            bit = (block_of >> (depth - level - 1)) & 1
            count, labels = component_labels(
                2 * ranges.size, 2 * eu + 1 - bit, 2 * ev + 1 - bit
            )
            self._maps.append((count, labels))
            eu, ev = labels[2 * eu + bit], labels[2 * ev + bit]
            copies = np.arange(2 * ranges.size)
            child_ranges = np.empty(count, dtype=np.int64)
            child_ranges[labels] = 2 * ranges[copies >> 1] + (copies & 1)
            ranges = child_ranges
        # Within one range, super-vertices are numbered in the order of their
        # smallest contracted vertex, as every level keeps: component_labels
        # numbers each child by its smallest copy 2s + c.  So a stable sort
        # by range lists every block's quotient vertices in that order;
        # ranges past the last core block hold no block and sort last.
        self._order = np.argsort(ranges, kind="stable")
        position = np.empty(ranges.size, dtype=np.int64)
        position[self._order] = np.arange(ranges.size)
        sizes = np.bincount(ranges, minlength=core_k)[:core_k]
        self._starts = np.concatenate(([0], np.cumsum(sizes)))
        # quotient edges: unique (lo, hi) leaf positions without loops,
        # sorted by block, then lo, then hi
        lo, hi = position[eu], position[ev]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        codes = np.unique((lo * ranges.size + hi)[lo != hi])
        self._edge_lo, self._edge_hi = codes // ranges.size, codes % ranges.size
        edge_block = ranges[self._order][self._edge_lo]
        self._edge_starts = np.searchsorted(edge_block, np.arange(core_k + 1))
        self._sizes = sizes  # per core block
        self._complete = 2 * np.diff(self._edge_starts) == sizes * (sizes - 1)
        # per block; a pendant block's core index -1 reads the appended K2
        self.sizes = tuple(np.append(sizes, 2)[self._core_block].tolist())
        self.complete = tuple(np.append(self._complete, True)[self._core_block].tolist())

    @property
    def partial_hamming(self) -> bool:
        """Every block quotient is complete; over the theta*-classes this is
        exactly the partial Hamming graphs."""
        return all(self.complete)

    def quotient_edges(self, i: int) -> np.ndarray:
        """The edges (lo, hi) of G/F_i as an array of rows, sorted."""
        c = self._core_block[i]
        if c < 0:
            return np.array([[0, 1]], dtype=np.int64)
        span = slice(self._edge_starts[c], self._edge_starts[c + 1])
        ends = np.stack((self._edge_lo[span], self._edge_hi[span]), axis=1)
        return ends - self._starts[c]

    def _fold(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` (one per weight, a column per vertex) folded in place into
        the core along the pendant trees: every vertex takes the sum over
        its subtree, so a pendant vertex holds its subtree's sum and a core
        vertex the sum of all that hangs from it.

        Pointer doubling: before level l every vertex holds its subtree's
        top 2^l levels, and each vertex at least 2^l steps below its core
        vertex hands that on to the vertex 2^l steps up, which then holds
        its top 2^(l+1) levels.  Trees of height h take ceil(log2(h + 1))
        levels, each one ``np.add.at`` over the vertices still that deep.
        """
        rows = np.ascontiguousarray(rows)  # folded through a flat view
        jump, src = self._up.copy(), self._peeled
        deep = np.zeros(len(jump), dtype=bool)  # the vertices of src
        deep[src] = True
        flat = rows.reshape(-1)
        offsets = len(jump) * np.arange(len(rows))[:, None]
        while src.size:
            dst = jump[src]
            np.add.at(flat, (dst + offsets).ravel(), rows[:, src].ravel())
            keep = deep[dst]
            deep[src[~keep]] = False
            src = src[keep]
            jump[src] = jump[jump[src]]
        return rows

    def _leaf_sums(self, rows: np.ndarray) -> np.ndarray:
        """Component sums of the weight rows on every core block's quotient,
        one column per quotient vertex in block order, from ``rows``' columns
        on the contracted vertices (the folded core, or the whole graph),
        replayed through the level maps."""
        sums = rows
        for count, labels in self._maps:
            # each super-vertex's sums go to the children of both its copies
            merged = np.zeros((len(rows), count), dtype=rows.dtype)
            index = (labels + count * np.arange(len(rows))[:, None]).ravel()
            np.add.at(merged.reshape(-1), index, np.repeat(sums, 2, axis=1).ravel())
            sums = merged
        return sums[:, self._order[: self._starts[-1]]]

    def block_matrix(
        self, weights: Weights, pairs: Sequence[Pair], *, closed: bool = False
    ) -> np.ndarray:
        """Per block, every pair's W(a, b) on the quotient with component-
        summed weights, undivided: a k x len(pairs) integer array in the
        scaled units of ``weights``, with W(a, a) = 2 W*(a) for a halved
        pair.

        A pendant edge's K2 has the sides S, the folded sums at its vertex,
        and T - S, with T the totals: its value is S_a (T_b - S_b) +
        (T_a - S_a) S_b, ``exact._split_sums``' term, for all pendant blocks
        at once.  A complete core quotient (distance 1 between all
        components) takes the closed sum W(a, b) = T_a T_b - sum_c A_c B_c,
        with A, B the component sums, for every complete core block and
        every pair at once.  Any other quotient takes a
        distance matrix D, with W(a, b) = sum_u A_u (D B)_u and one D B
        product per distinct B.  When the engine ran theta* itself, the
        largest such quotient takes none of its own: the core blocks sum to
        sum_{u,v} a'_u b'_v d(u, v) over the 2-core, with a' and b' the
        weights folded onto it, so one D B on theta*'s core matrix gives the
        sum, and the block is the sum minus the column sums of the other
        core blocks.  Every other non-complete quotient gets its own matrix.
        ``closed`` applies the closed sums to every quotient, which gives
        the partial-Hamming lower bound instead of the exact value.

        Two bounds pick the dtypes (:mod:`topocut.exact`), with T = sum|w| of
        a row: the component and subtree sums and the entries of D B are at
        most (n - 1) max T; a block value of W(a, b) is at most s T_a T_b, where
        s is 1 for a closed sum and the largest D B quotient's size less one
        otherwise (the core's, for the subtracted block), since every
        quotient distance is at most that; so is each term of a pendant
        block.  D B takes one chunk of rows of D at a time, in int32 while
        int32 holds its every partial sum (``_distance_sums``).
        """
        k = len(self.sizes)
        if not pairs:
            return np.zeros((k, 0), dtype=np.int64)
        sizes = self._sizes
        chosen = np.ones(sizes.size, dtype=bool) if closed else self._complete
        others = np.flatnonzero(~chosen)
        largest = None
        if self._core_distances is not None and others.size:
            largest = int(others[np.argmax(sizes[others])])
            span = self._core_distances.shape[0] - 1
        else:
            span = int(sizes[others].max(initial=2)) - 1
        rows, left, right, dtype = _pair_rows(weights, pairs, self.g.n, span)
        whole = rows.sum(axis=1).astype(dtype, copy=False)
        values = np.zeros((k, len(pairs)), dtype=dtype)
        core = rows
        if self._peeled is not None:
            rows = self._fold(rows)
            core = rows[:, self.g.peel.core]
            below = rows[:, self._pendant_vertex].astype(dtype, copy=False)
            above = whole[:, None] - below
            values[self._core_block < 0] = (below[left] * above[right]
                                            + above[left] * below[right]).T
        agg = self._leaf_sums(core)
        blocks = self._core_ids
        # closed sums over the chosen blocks at once, one segment per block
        if chosen.any():
            part = agg[:, np.repeat(chosen, sizes)].astype(dtype, copy=False)
            seams = np.cumsum(sizes[chosen]) - sizes[chosen]
            within = np.add.reduceat(part[left] * part[right], seams, axis=1)
            values[blocks[chosen]] = ((whole[left] * whole[right])[:, None] - within).T
        for c in others.tolist():
            if c == largest:
                continue
            # quotient edges are unique, (lo, hi)-ordered and connect the quotient
            quotient = Graph(int(sizes[c]), self.quotient_edges(blocks[c]), validate=False)
            part = agg[:, self._starts[c]:self._starts[c + 1]]
            values[blocks[c]] = _distance_sums(distance_matrix(quotient), part, left, right, dtype)
        if largest is not None:
            total = _distance_sums(self._core_distances, core, left, right, dtype)
            values[blocks[largest]] = total - values[blocks].sum(axis=0)
        return values

    def values(self, terms: Sequence[Term], *, closed: bool = False) -> list[Weight]:
        """Every term summed over the blocks: one exact column sum and one
        division per term.  Each block value of W*(x) is an even W(x, x),
        so halving the sum equals summing the halves."""
        weights, pairs = term_pairs(terms)
        return column_values(self.block_matrix(weights, pairs, closed=closed), weights, pairs)


def _pair_rows(weights: Weights, pairs: Sequence[Pair], n: int, span: int) -> tuple:
    """The rows ``pairs`` use, in the dtype of their sums over n vertices, at
    most (n - 1) max T with T = sum|w| of a row; each pair's rows among them,
    left and right; and the dtype of values up to span max T_a T_b."""
    used = sorted({r for i, j, _ in pairs for r in (i, j)})
    column = {r: c for c, r in enumerate(used)}
    left = [column[i] for i, _, _ in pairs]
    right = [column[j] for _, j, _ in pairs]
    bounds = [weights.bounds[r] for r in used]
    sum_bound = max(n - 1, 1) * max(bounds)
    rows = weights.rows[used].astype(_exact_dtype(sum_bound), copy=False)
    top = max(bounds[i] * bounds[j] for i, j in zip(left, right))
    return rows, left, right, _exact_dtype(max(sum_bound, span * top))


def distance_sums(g: Graph, weights: Weights, pairs: Sequence[Pair]) -> np.ndarray:
    """Every pair's W(a, b) on ``g``, undivided, in the scaled units of
    ``weights``: one distance matrix and one D B per distinct B, under the
    guards of :meth:`CutEngine.block_matrix`'s non-complete blocks."""
    return _distance_sums(distance_matrix(g), *_pair_rows(weights, pairs, g.n, g.n - 1))


def _distance_sums(
    dist: np.ndarray,
    weights: np.ndarray,
    left: Sequence[int],
    right: Sequence[int],
    dtype: type,
) -> np.ndarray:
    """sum_u A_u (D B)_u for every pair of rows (left[t], right[t]) of
    ``weights``, in ``dtype``, with D the distance matrix ``dist``.  D B is
    formed once per distinct right row B, one chunk of rows of D at a time,
    in the dtype from int32 on that (q - 1) max sum|B| allows, the bound on
    every partial sum of a q-vertex quotient (object for object weights).
    numpy's int32 einsum along contiguous rows took 0.14 against 0.37 ms
    for the int64 matmul on a 390-vertex core with three weight rows, and
    6.5 against 17 ms on a 2000-vertex one (2-core Xeon VM, numpy 2.4)."""
    rights = sorted(set(right))
    columns = weights[rights]
    kind = object if weights.dtype == object else _narrowest_dtype(
        (len(dist) - 1) * int(np.abs(columns).sum(axis=1).max()), np.int32
    )
    wide = kind is not np.int32
    columns = columns.astype(kind, copy=False)
    products = np.empty((len(rights), len(dist)), dtype=kind)
    for lo in range(0, len(dist), ROW_CHUNK):  # never a whole int64 or object copy of D
        chunk = dist[lo:lo + ROW_CHUNK].astype(kind)
        if wide:
            products[:, lo:lo + ROW_CHUNK] = (chunk @ columns.T).T
        else:
            products[:, lo:lo + ROW_CHUNK] = np.einsum("ij,kj->ki", chunk, columns)
    products = products[np.searchsorted(rights, right)].astype(dtype, copy=False)
    return (weights[left].astype(dtype, copy=False) * products).sum(axis=1)


def wiener_weighted_via_cuts(
    g: Graph, w: Sequence[Weight], partition: EdgePartition
) -> Weight:
    """Product-weighted Wiener index as a sum over quotient graphs: the sum
    of W*(G/F_i, w_i) with w_i the component sums of w."""
    check_weights(g, w)
    return CutEngine(g, partition).values([(w, None)])[0]


def wiener_double_via_cuts(dwg: DoubleWeightedGraph, partition: EdgePartition) -> Weight:
    """Double-weighted Wiener index as a sum over quotient graphs: the sum
    of W(G/F_i, a_i, b_i) with component-aggregated weights."""
    return CutEngine(dwg.g, partition).values([(dwg.a, dwg.b)])[0]


def degree_distance_via_cuts(g: Graph, partition: EdgePartition) -> int:
    """Degree distance via quotients: weights a = degrees, b = 1."""
    return CutEngine(g, partition).values([(degree_vector(g), (1,) * g.n)])[0]


def is_partial_cube(g: Graph, classes: ThetaClasses | None = None) -> bool:
    """True iff every theta*-class quotient is K2: the partial Hamming graphs
    whose quotients are all K2 (P. Winkler, Discrete Appl. Math. 7, 1984).
    Given ``classes`` are checked against theta* first."""
    return all(size == 2 for size in _engine(g, classes).sizes)


def _engine(g: Graph, classes: ThetaClasses | None) -> CutEngine:
    """The engine over theta*, or over given ``classes`` once a theta* run
    validates them as coarser than the theta*-classes."""
    return CutEngine(g, None if classes is None else validate_coarser(g, classes.classes))

