"""Core graph machinery: construction, BFS distances, component labellings,
and the integer-table reader behind every input format.

Components are labelled in numpy by ``component_labels``, a hook-and-jump
on the edge arrays, and ``distance_matrix`` is a bit-packed breadth-first
search in numpy.  scipy serves only its Dijkstra branch, for graphs whose
vertex 0 is too eccentric for the search to pay, and is imported on that
branch: importing this module loads no scipy.

Vertices are dense integer indices 0..n-1.  A graph is stored as its edge
array, one (min, max) row per edge in input order; the ``csr`` arrays and
the ``edges`` and ``adj`` tuples are built from it on first use.  Graphs
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from . import exact
from .exact import _exact_dtype, _int_array, _narrowest_dtype


class GraphError(ValueError):
    """Invalid graph construction or an operation on an unsuitable graph."""


class ParseError(ValueError):
    """Malformed input text; the message names the offending line."""


class PlacementError(ValueError):
    """A set of lattice cells that is not a catacondensed benzenoid system."""


class Graph:
    """Simple connected undirected graph on vertices 0..n-1.

    The graph is its edge array: ``edge_array`` holds the m edges as rows
    (u, v) with u < v, in input order.  ``csr``, ``edges`` and ``adj`` are
    built from it on first use.  ``edges`` may be given as an iterable of
    pairs or as an (m, 2) integer array.  Validation runs on the arrays:
    range and self-loops elementwise, duplicates by unique lo * n + hi
    codes, connectivity by ``component_labels``; the error names the first
    offending edge in input order.

    Attributes:
        n:         vertex count
        edges:     tuple of (u, v) pairs with u < v, in input order
        csr:       the adjacency as CSR arrays (indptr, indices)
        adj:       per-vertex tuple of neighbours, sorted ascending
        peel:      the pendant trees and the 2-core, as a :class:`Peel`
    """

    __slots__ = ("n", "_ends", "_csr", "_edges", "_adj", "_peel")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        *,
        validate: bool = True,
    ):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        # an edge past int64 is out of range; _int_array keeps it to name it exactly
        ends = (edges if isinstance(edges, np.ndarray) else _int_array(list(edges))).reshape(-1, 2)
        if validate:
            ends = _checked_ends(n, ends)
            # m < n - 1 edges cannot connect n vertices; the test then needs
            # no per-vertex array, however large n is
            if len(ends) < n - 1 or component_labels(n, *ends.T)[0] != 1:
                raise GraphError("graph is disconnected")
        # unvalidated, the caller guarantees simple, in-range, (min, max)-ordered, connected
        self.n = n
        self._ends = np.array(ends, dtype=np.intp)
        self._ends.flags.writeable = False
        self._csr = self._edges = self._adj = self._peel = None

    @property
    def m(self) -> int:
        return len(self._ends)

    @property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only m x 2 intp array, in edge order."""
        return self._ends

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(zip(*self._ends.T.tolist())) if self.m else ()
        return self._edges

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as CSR arrays (indptr, indices): the neighbours of
        v, ascending, are ``indices[indptr[v]:indptr[v + 1]]``."""
        if self._csr is None:
            n, tail = self.n, self._ends.ravel()
            # codes tail * n + head sort by tail, then head; they are exact,
            # as an n + 1 long indptr fits in memory only for n far below 2^31
            indices = np.sort(tail * n + self._ends[:, ::-1].ravel()) % n
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
            self._csr = (indptr, indices)
        return self._csr

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            indptr, indices = self.csr
            heads, bounds = indices.tolist(), indptr.tolist()
            self._adj = tuple(tuple(heads[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
        return self._adj

    @property
    def peel(self) -> Peel:
        """The pendant trees and the 2-core (:func:`pendant_peel`), built on
        first use."""
        if self._peel is None:
            self._peel = pendant_peel(self.n, self._ends)
        return self._peel

    def index_of_edge(self, u: int, v: int) -> int:
        """The position of edge {u, v} in ``edges``."""
        lo, hi = self._ends.T
        found = np.flatnonzero((lo == min(u, v)) & (hi == max(u, v)))
        if not found.size:
            raise GraphError(f"unknown edge ({u}, {v})")
        return int(found[0])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _checked_ends(n: int, ends: np.ndarray) -> np.ndarray:
    """The edges as (min, max) rows; raises GraphError, in its wording, for
    the edge that ``_first_bad_edge`` finds."""
    u, v = ends[:, 0], ends[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    first = _first_bad_edge(n, lo, hi)
    if first == len(ends):
        return np.column_stack((lo, hi))
    a, b = int(u[first]), int(v[first])
    if a == b:
        raise GraphError(f"self-loop at vertex {a}")
    if not (0 <= a < n and 0 <= b < n):
        raise GraphError(f"edge ({a}, {b}) out of range for n={n}")
    raise GraphError(f"duplicate edge {(min(a, b), max(a, b))}")


def _first_bad_edge(n: int, lo: np.ndarray, hi: np.ndarray) -> int:
    """The position of the first edge (lo, hi), in input order, that is a
    self-loop, out of range or a repeat; the edge count if there is none."""
    bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
    first = int(bad[0]) if bad.size else len(lo)
    # the edges before the first bad one are in range: their codes lo * n + hi
    # are unique per edge, and below n^2
    codes = lo[:first].astype(_exact_dtype(n * n), copy=False) * n + hi[:first]
    ordered = np.sort(codes)
    if (ordered[1:] == ordered[:-1]).any():
        once = np.unique(codes, return_index=True)[1]  # each code's first edge
        repeat = np.ones(first, dtype=bool)
        repeat[once] = False
        first = int(np.argmax(repeat))
    return first


@dataclass(frozen=True)
class Peel:
    """The pendant trees of a graph, peeled off its 2-core.

    ``order`` lists the peeled vertices, each before the vertex it hangs
    from; ``parent[i]`` is that vertex for ``order[i]`` and ``edge[i]`` the
    index of the edge between them.  ``core`` and ``core_edges`` hold the
    ids, ascending, of the vertices and edges left; ``core_ends`` has the
    core edges' ends renumbered to their positions in ``core``.
    """

    order: np.ndarray
    parent: np.ndarray
    edge: np.ndarray
    core: np.ndarray
    core_edges: np.ndarray
    core_ends: np.ndarray


def pendant_peel(n: int, ends: np.ndarray) -> Peel:
    """Remove degree-1 vertices until none is left, in O(n + m).

    A leaf's one remaining edge is the xor of the ids of its remaining
    edges, and the xor of that edge's ends with the leaf is its parent, so
    the peel keeps two numbers per vertex and no adjacency list.  On a
    connected graph what remains is the 2-core, or one vertex of a tree (its
    last leaf has degree 0).  A graph with minimum degree 2 costs one
    ``bincount`` and keeps every vertex and edge.
    """
    degree = np.bincount(ends.ravel(), minlength=n)
    leaves = np.flatnonzero(degree == 1).tolist()
    order: list[int] = []
    parent: list[int] = []
    edge: list[int] = []
    if leaves:
        ids = np.arange(len(ends))
        incident = np.zeros(n, dtype=np.intp)
        np.bitwise_xor.at(incident, ends[:, 0], ids)
        np.bitwise_xor.at(incident, ends[:, 1], ids)
        incident = incident.tolist()
        other = (ends[:, 0] ^ ends[:, 1]).tolist()
        degree = degree.tolist()
        while leaves:
            v = leaves.pop()
            if degree[v] != 1:  # the last vertex of a tree
                continue
            e = incident[v]
            p = other[e] ^ v
            degree[v] = 0
            degree[p] -= 1
            incident[p] ^= e
            order.append(v)
            parent.append(p)
            edge.append(e)
            if degree[p] == 1:
                leaves.append(p)
    core = np.ones(n, dtype=bool)
    core[order] = False
    core_edges = np.ones(len(ends), dtype=bool)
    core_edges[edge] = False
    core_edges = np.flatnonzero(core_edges)
    core_ends = (np.cumsum(core) - 1)[ends[core_edges]] if order else ends
    return Peel(
        np.array(order, dtype=np.intp),
        np.array(parent, dtype=np.intp),
        np.array(edge, dtype=np.intp),
        np.flatnonzero(core),
        core_edges,
        core_ends,
    )


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a Graph from an edge list."""
    return Graph(n, edge_list)


def degree_vector(g: Graph) -> tuple[int, ...]:
    """Per-vertex degrees; their sum is 2|E|."""
    return tuple(np.bincount(g.edge_array.ravel(), minlength=g.n).tolist())


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from one source."""
    return _bfs(_neighbours(g), source)


def _neighbours(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours, ascending, as lists cut from ``Graph.csr``."""
    indptr, indices = (a.tolist() for a in g.csr)
    return [indices[lo:hi] for lo, hi in zip(indptr, indptr[1:])]


def _bfs(neighbours: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(neighbours)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in neighbours[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Exact BFS hop distances between all vertex pairs, as plain machine
    integers."""
    neighbours = _neighbours(g)
    return tuple(tuple(_bfs(neighbours, s)) for s in range(g.n))


# Rows of an n x n array that a kernel unpacks or casts at a time, so that
# it forms no n x n temporary beside its result.
ROW_CHUNK = 1024

# The degree slots of ``_slot_spread`` of fewer than ``_SLOT_WORDS`` words
# join one ``reduceat`` of the highest-degree vertices.  Measured on a
# 2-core Xeon VM (numpy 2.4): two hubs of degree 1002 on a cycle of 200
# took 34 ms with the shared reduceat and 267 ms with a call per slot
# (degree 62: 1.2 against 6.2 ms); 128 to 512 words changed none of the
# times on houses, grids and random 2-cores.
_SLOT_WORDS = 256


def _slot_spread(indptr: np.ndarray, indices: np.ndarray, words: int):
    """The degree-slot OR of ``distance_matrix``: a vertex order, its
    inverse, and a function from a bit-packed frontier whose rows follow
    that order to the OR of each row's neighbour rows.

    The vertices are ordered by descending degree, so the vertices with a
    j-th neighbour are the first k_j, and slot j lists those neighbours'
    rows.  A level is one ``np.take`` per slot into a preallocated buffer
    and an OR into the first k_j rows of the result: the same words as
    ``bitwise_or.reduceat`` over the CSR rows, with one contiguous gather
    per slot in place of a segmented reduction over every arc.  The slots
    of fewer than ``_SLOT_WORDS`` words, those of the few vertices of
    highest degree, are gathered at once and ORed by one ``reduceat``, so
    a level costs a bounded number of calls whatever the largest degree.
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    first = indptr[order]
    # k_j = n minus the number of vertices with at most j neighbours
    sizes = n - np.cumsum(np.bincount(degree))[:-1]
    kept = int(np.count_nonzero(sizes * words >= _SLOT_WORDS)) or 1
    slots = [rank[indices[first[:k] + j]] for j, k in enumerate(sizes[:kept].tolist())]
    hubs = int(sizes[kept]) if kept < len(sizes) else 0
    if hubs:  # the rest of the rows of the first `hubs` vertices, one segment each
        rest = degree[order[:hubs]] - kept
        starts = np.cumsum(rest) - rest
        tail = rank[indices[np.repeat(first[:hubs] + kept - starts, rest) + np.arange(rest.sum())]]
    buffer = np.empty((len(slots[1]) if kept > 1 else 0, words), dtype=np.uint64)
    parts = [(slot, buffer[:len(slot)]) for slot in slots[1:]]

    def spread(frontier: np.ndarray, out: np.ndarray) -> None:
        frontier.take(slots[0], axis=0, out=out, mode="clip")  # slot 0 holds every vertex
        for slot, part in parts:
            frontier.take(slot, axis=0, out=part, mode="clip")
            out[:len(slot)] |= part
        if hubs:
            out[:hubs] |= np.bitwise_or.reduceat(frontier[tail], starts, axis=0)

    return order, rank, spread


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances as an n x n array, from the graph's cached
    CSR arrays (``Graph.csr``).

    A breadth-first search from every source at once on bit-packed rows:
    bit s of ``unseen[v]`` (word s >> 6) says that source s has not reached
    v yet, and ``frontier[v]`` holds the sources that reached v in the last
    level.  A level ORs the frontier words of each vertex's neighbours and
    masks them by ``unseen``.  The distances stay bit-packed too, as bit
    planes: level l ORs its frontier into plane b for every bit b set in l,
    so the n x n result is unpacked once per bit of the diameter, not once
    per level, and ``ROW_CHUNK`` rows at a time.

    A level's neighbour OR is the degree-slot OR of ``_slot_spread``, on
    rows ordered by descending degree and returned to vertex order at the
    end.  One plain breadth-first search from vertex 0, the oracle's
    ``bfs_distances``, decides before any of it runs whether the search
    pays: it does while vertex 0's eccentricity is at most
    B = (n + 2m) // ceil(n / 64), the words of one Dijkstra source's work
    over the words of one bit-packed row.  Past B, on long, thin graphs,
    scipy's Dijkstra runs instead, the one sparse matrix built here; scipy
    is imported only on this branch.

    The dtype is the narrowest signed integer type that holds the diameter,
    which the search knows as its level count before it unpacks the planes
    (Dijkstra's branch takes its own maximum), so differences of rows stay
    exact too: they lie within plus or minus the diameter.  Every consumer
    that sums or multiplies widens first.  ``all_pairs_distances`` is the
    pure-Python reference.
    """
    n = g.n
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8)
    indptr, indices = g.csr
    words = (n + 63) >> 6
    # Measured at e = B on a 2-core Xeon VM (numpy 2.4, scipy 1.17), the
    # slots took 0.88 of Dijkstra's time on a grid 4 wide (n = 1200), 0.95
    # to 1.08 on one 10 wide (n = 3000, two runs) and 0.26 on a broom
    # (n = 3000).  No eccentricity exceeds n - 1, so the probe runs only
    # when B < n - 1: never while n <= 64 (B >= 3n - 2), nor on dense graphs.
    longest = (n + len(indices)) // words
    if n - 1 > longest and max(bfs_distances(g, 0)) > longest:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        adj = csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr), shape=(n, n))
        dist = shortest_path(adj, unweighted=True)
        return dist.astype(_narrowest_dtype(int(dist.max())))
    order, rank, spread = _slot_spread(indptr, indices, words)
    frontier = np.zeros((n, words), dtype=np.uint64)  # row i: vertex order[i]
    frontier[np.arange(n), order >> 6] = np.left_shift(np.uint64(1), (order & 63).astype(np.uint64))
    unseen = ~frontier
    spare = np.empty_like(frontier)
    planes: list[np.ndarray] = []  # plane b: sources at a distance with bit b set
    level = 0
    while True:
        spread(frontier, spare)
        frontier, spare = spare, frontier
        frontier &= unseen
        if not np.count_nonzero(frontier):
            break
        level += 1
        unseen ^= frontier
        for b in range(level.bit_length()):
            if level >> b & 1:
                if b == len(planes):
                    planes.append(frontier.copy())
                else:
                    planes[b] |= frontier
    for b, plane in enumerate(planes):  # rows back to vertex order
        planes[b] = plane[rank]
    dtype = _narrowest_dtype(level)
    dist = np.zeros((n, n), dtype=dtype)
    for lo in range(0, n, ROW_CHUNK):  # no n x n temporary beside the result
        rows = dist[lo:lo + ROW_CHUNK]
        for b, plane in enumerate(planes):
            bits = np.unpackbits(plane[lo:lo + ROW_CHUNK].view(np.uint8), axis=1, count=n,
                                 bitorder="little")
            # as int8: numpy casts uint8 to int8 by its slow unsafe-cast loop
            rows |= np.left_shift(bits.view(np.int8), b, dtype=dtype)
    return dist


def component_labels(n: int, eu: np.ndarray, ev: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on vertices 0..n-1 with edges
    (eu, ev): their count and int64 labels numbered by smallest contained
    vertex.  Loops and repeated edges are allowed.

    A min-label hook-and-jump (Y. Shiloach and U. Vishkin, "An O(log n)
    parallel connectivity algorithm", J. Algorithms 3, 1982) on the edge
    arrays.  Every vertex points at a smaller one or at itself, so each
    tree's root is its smallest vertex.  A round hooks every root onto the
    smallest root across its edges, if that is smaller, jumps the pointers
    until each vertex points at its root, and drops the edges whose ends
    share a root.  Each jump pass halves every pointer path, so a round
    costs O(m + n log n).  Only roots smaller than every root across their
    edges stay, so on a path the trees at least halve per round, whatever
    the edge order; random trees, grids and caterpillars with shuffled
    vertex numbers took at most 9 rounds up to n = 5000.
    """
    parent = np.arange(n, dtype=np.int64)
    # the dtype of parent: minimum.at takes a slow path on mixed dtypes
    u, v = np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64)
    while True:
        cross = u != v
        u, v = u[cross], v[cross]
        if not u.size:
            break
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        u, v = parent[u], parent[v]
    root = parent == np.arange(n)
    rank = np.cumsum(root) - 1  # int64: int32 would wrap lo * ncomp + hi past 46341
    return int(rank[-1]) + 1 if n else 0, rank[parent]


# Byte classes of the integer-table reader, a ``bytes.translate`` table: 0 for
# a byte it leaves to ``token_lines``, then blank, line break, digit, sign, slash.
_BLANK, _BREAK, _DIGIT, _SIGN, _SLASH = 1, 2, 3, 4, 5
_BYTE_CLASS = bytes(
    _BLANK if b in b" \t" else _BREAK if b in b"\n\r"  # str.splitlines breaks at both
    else _DIGIT if b in b"0123456789" else _SIGN if b in b"+-" else _SLASH if b == ord("/")
    else 0 for b in range(256)
)

def read_int_table(text: str, widths: tuple[int, ...]) -> np.ndarray | None:
    """The whitespace-separated integers of ``text`` as an int64 table, one
    row per non-blank line, or None for a text the table cannot hold exactly.

    Every non-blank line must hold the same number of tokens, one of
    ``widths`` (each below 256), and every token must be an optionally
    signed run of ASCII digits with a value strictly inside +-2^60: exactly
    the lines and values that ``str.splitlines``, ``str.split`` and ``int``
    read from the text.
    Anything else (comments, other bytes, ``1_0``, a lone sign, a ragged
    line, an empty text, a larger value, a ``p/q`` token) gives None, and
    the caller reads the text by ``token_lines`` and names the offending
    line.
    """
    table = read_ratio_table(text, widths)
    return None if table is None or table[1] is not None else table[0]


def read_ratio_table(
    text: str, widths: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``read_int_table`` that also takes ``p/q`` tokens: an optionally
    signed run of digits, a slash and a run of digits, as ``Fraction``
    reads them.  Returns the numerators and the denominators as int64
    tables; the denominators are None when no token has a slash, and 0 for
    a token without one.  Every value, numerator or denominator, lies
    strictly inside +-2^60, and a zero denominator gives None, as does any
    text ``read_int_table`` would not read but for its slashes.

    A few passes over the bytes: one class lookup (``bytes.translate``),
    token starts where a digit or sign follows a blank or break, each line's
    token count by one ``np.add.reduceat`` of the starts, and numpy's C reader
    for the values with each slash read as a blank, whose count and range are
    checked (it clamps a value past int64 rather than failing).
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    kind = np.frombuffer(data.translate(_BYTE_CLASS), dtype=np.uint8)
    if not kind.all():
        return None
    word = kind >= _DIGIT
    start = word.copy()
    np.greater(word[1:], word[:-1], out=start[1:])
    count = np.count_nonzero(start)
    if not count:
        return None
    signs = np.flatnonzero(kind == _SIGN) if b"+" in data or b"-" in data else ()
    if len(signs) and (  # each starting a token, before a digit
        signs[-1] == kind.size - 1 or not start[signs].all() or (kind[signs + 1] != _DIGIT).any()
    ):
        return None
    slashes = np.flatnonzero(kind == _SLASH) if b"/" in data else ()
    if len(slashes):
        # a digit on each side, and one slash per token
        if slashes[0] == 0 or slashes[-1] == kind.size - 1:
            return None
        if (kind[slashes - 1] != _DIGIT).any() or (kind[slashes + 1] != _DIGIT).any():
            return None
        owner = np.searchsorted(np.flatnonzero(start), slashes, side="right") - 1
        if (np.diff(owner) == 0).any():
            return None
        data = data.replace(b"/", b" ")
    # Token counts per line (break to break) modulo 256, in uint8: no intp copy.
    # A line that reads width holds at least width tokens, so width per such
    # line is the total only if each holds width and every other line none.
    lines = np.equal(kind, _BREAK, out=word)
    lines[0] = True
    tokens = np.add.reduceat(start.view(np.uint8), np.flatnonzero(lines), dtype=np.uint8)
    width = int(tokens.max())
    if width not in widths or width * np.count_nonzero(tokens == width) != count:
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if (
        values.size != count + len(slashes)
        or values.min() <= -exact._TABLE_LIMIT
        or values.max() >= exact._TABLE_LIMIT
    ):
        return None
    if not len(slashes):
        return values.reshape(-1, width), None
    # a token's numerator follows the values of the tokens before it
    ratio = np.zeros(count, dtype=bool)
    ratio[owner] = True
    first = np.arange(count) + np.cumsum(ratio) - ratio
    den = np.zeros(count, dtype=np.int64)
    den[ratio] = values[first[ratio] + 1]
    if not den[ratio].all():
        return None
    return values[first].reshape(-1, width), den.reshape(-1, width)


def token_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, its tokens) for every line of ``text``
    that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.split()


def read_int_rows(text: str, what: str) -> np.ndarray:
    """The lines of two integers in ``text`` as an (r, 2) array: the
    ``read_int_table`` table, or else the ``token_lines`` rows as exact
    Python ints, int64 while they fit (``_int_array``).  The edge list and
    the placement read through it; a line that does not hold two integers
    raises ``ParseError`` naming the line and ``what`` it should hold."""
    rows = read_int_table(text, (2,))
    if rows is not None:
        return rows
    values = []
    for lineno, line, parts in token_lines(text):
        try:
            a, b = map(int, parts)  # a third token fails the unpacking
        except ValueError:
            raise ParseError(f"line {lineno}: expected {what}, got {line!r}") from None
        values.append((a, b))
    return _int_array(values).reshape(-1, 2)


def parse_edge_list(text: str, header: bool | None = None) -> Graph:
    """Parse the edge-list text format.

    Lines hold two whitespace-separated decimal vertex indices; lines starting
    with '#' are ignored.  An optional first line "n m" fixes the vertex count.
    ``header`` True reads the first line as that header, which must give
    n >= 1 and the count m of edge lines after it; False reads it as an
    edge; None reads it as the header only when it would pass as one.

    The rows come from ``read_int_rows``; one row check (``_first_bad_edge``)
    and one connectivity test follow.  A ``ParseError`` names the offending
    line, looked up only then: row r of either source is the r-th token line.
    """
    rows = read_int_rows(text, "two integers")
    if not len(rows):
        raise ParseError("no edges found")

    def where(r: int) -> str:  # the line of row r
        return f"line {next(islice(token_lines(text), r, None))[0]}"

    first_a, first_b = rows[0].tolist()
    fits = first_b == len(rows) - 1 and first_a >= 1
    if header and not fits:
        raise ParseError(f"{where(0)}: header needs n >= 1 and the edge count "
                         f"{len(rows) - 1}, got '{first_a} {first_b}'")
    skip = int(fits and header is not False)
    n = first_a if skip else int(rows.max()) + 1
    u, v = rows[skip:].T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = _first_bad_edge(n, lo, hi)
    if bad < len(lo):
        a, b, at = int(lo[bad]), int(hi[bad]), where(bad + skip)
        if not (0 <= a and b < n):
            raise ParseError(f"{at}: vertex out of range for n={n}")
        if a == b:
            raise ParseError(f"{at}: self-loop at vertex {a}")
        raise ParseError(f"{at}: duplicate edge {(a, b)}")
    if len(lo) < n - 1 or component_labels(n, lo, hi)[0] != 1:
        raise ParseError("graph is disconnected")
    return Graph(n, np.column_stack((lo, hi)), validate=False)


def format_edge_list(g: Graph) -> str:
    """Emit the edge-list format with an "n m" header (round-trips exactly)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
