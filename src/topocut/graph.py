"""Core graph machinery: construction, BFS distances, component labellings.

Vertices are dense integer indices 0..n-1.  Edges are unordered pairs stored
as (min, max) tuples in input order.  Graphs are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


class GraphError(ValueError):
    """Invalid graph construction or an operation on an unsuitable graph."""


class ParseError(ValueError):
    """Malformed input text; the message names the offending line."""


class Graph:
    """Simple undirected graph on vertices 0..n-1, connected by default.

    Attributes:
        n:     vertex count
        edges: tuple of (u, v) pairs with u < v, in input order
        adj:   per-vertex tuple of neighbours, sorted ascending
    """

    __slots__ = ("n", "edges", "adj", "connected", "_edge_index", "_edge_array")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        *,
        require_connected: bool = True,
        validate: bool = True,
    ):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if validate:
            norm = []
            seen = set()
            for u, v in edges:
                if u == v:
                    raise GraphError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
                e = (u, v) if u < v else (v, u)
                if e in seen:
                    raise GraphError(f"duplicate edge {e}")
                seen.add(e)
                norm.append(e)
            self.edges = tuple(norm)
        else:
            # caller guarantees simple, in-range, (min, max)-ordered, connected
            self.edges = tuple(edges)
        self.n = n
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            rows[u].append(v)
            rows[v].append(u)
        self.adj = tuple(tuple(sorted(r)) for r in rows)
        self._edge_index = None
        self._edge_array = None
        if validate:
            self.connected = _is_connected(n, self.adj)
            if require_connected and not self.connected:
                raise GraphError("graph is disconnected")
        else:
            self.connected = True

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map from (min, max) endpoint pair to position in ``edges``."""
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edges)}
        return self._edge_index

    @property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only m x 2 intp array, in edge order."""
        if self._edge_array is None:
            ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
            ends.flags.writeable = False
            self._edge_array = ends
        return self._edge_array

    def index_of_edge(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[e]
        except KeyError:
            raise GraphError(f"unknown edge ({u}, {v})") from None

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _is_connected(n: int, adj: Sequence[Sequence[int]]) -> bool:
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def build_graph(
    n: int, edge_list: Iterable[tuple[int, int]], *, require_connected: bool = True
) -> Graph:
    """Validate and build a Graph from an edge list."""
    return Graph(n, edge_list, require_connected=require_connected)


def degree_vector(g: Graph) -> tuple[int, ...]:
    """Per-vertex degrees; their sum is 2|E|."""
    return tuple(len(r) for r in g.adj)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from one source (-1 for unreachable vertices)."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adj
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Exact BFS hop distances between all vertex pairs.

    Requires a connected graph; distances are plain machine integers.
    """
    if not g.connected:
        raise GraphError("distances are defined for connected graphs only")
    return tuple(tuple(bfs_distances(g, s)) for s in range(g.n))


def adjacency_matrix(g: Graph) -> csr_matrix:
    """Symmetric boolean adjacency matrix in CSR form."""
    e = g.edge_array
    rows = np.concatenate((e[:, 0], e[:, 1]))
    cols = np.concatenate((e[:, 1], e[:, 0]))
    return csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(g.n, g.n))


# Eccentricity of vertex 0 above which scipy's Dijkstra replaces the
# all-sources bit-packed BFS, whose cost grows with the number of levels.
# Measured on a 2-core Xeon VM (numpy 2.4, scipy 1.17): on paths, cycles and
# ladders with n <= 57 the BFS is within 0.1 ms of Dijkstra up to
# eccentricity 24 and falls behind past it (house of 200 rungs: 20 ms
# against 7 ms); random trees with n = 1000 to 5000 (eccentricity 18 to 21)
# run 5 to 10 times faster in the BFS.
_FRONTIER_ECCENTRICITY = 24


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances as an n x n array.

    Small-diameter graphs run a breadth-first search from every source at
    once on bit-packed rows: bit s of ``seen[v]`` (word s >> 6) says that
    source s has reached v, and ``frontier[v]`` holds the sources that
    reached v in the last level.  A level ORs the frontier words of each
    vertex's neighbours with one ``bitwise_or.reduceat`` over the CSR rows
    and masks them by ``~seen``.  The distances stay bit-packed too, as bit
    planes: level l ORs its frontier into plane b for every bit b set in l,
    so the n x n result is unpacked once per bit of the diameter, not once
    per level.  Long graphs run scipy's Dijkstra instead.  The dtype is
    the narrowest signed integer type that holds n - 1, so differences of
    rows stay exact.  Requires a connected graph; ``all_pairs_distances`` is
    the pure-Python reference.
    """
    if not g.connected:
        raise GraphError("distances are defined for connected graphs only")
    n = g.n
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= n - 1)
    if n == 1:
        return np.zeros((1, 1), dtype=dtype)
    adj = adjacency_matrix(g)
    if shortest_path(adj, unweighted=True, indices=0).max() > _FRONTIER_ECCENTRICITY:
        return shortest_path(adj, unweighted=True).astype(dtype)
    # reduceat returns a segment's first element, not 0, for an empty
    # segment; in a connected graph with n >= 2 every row has a neighbour.
    assert np.all(np.diff(adj.indptr) > 0)
    source = np.arange(n)
    seen = np.zeros((n, (n + 63) >> 6), dtype=np.uint64)
    seen[source, source >> 6] = np.left_shift(np.uint64(1), (source & 63).astype(np.uint64))
    frontier = seen
    planes: list[np.ndarray] = []  # plane b: sources at a distance with bit b set
    level = 0
    while True:
        frontier = np.bitwise_or.reduceat(frontier[adj.indices], adj.indptr[:-1], axis=0)
        frontier &= ~seen
        if not frontier.any():
            break
        level += 1
        seen |= frontier
        for b in range(level.bit_length()):
            if level >> b & 1:
                if b == len(planes):
                    planes.append(frontier.copy())
                else:
                    planes[b] |= frontier
    dist = np.zeros((n, n), dtype=dtype)
    for b, plane in enumerate(planes):
        bits = np.unpackbits(plane.view(np.uint8), axis=1, count=n, bitorder="little")
        dist |= np.left_shift(bits, b, dtype=dtype)
    return dist


def first_seen_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel so that labels number their groups in order of first position."""
    first = np.unique(labels, return_index=True)[1]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[labels]


def component_labels(n: int, eu: np.ndarray, ev: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on vertices 0..n-1 with edges
    (eu, ev): their count and int64 labels numbered by smallest contained
    vertex.  Loops and repeated edges are allowed."""
    if eu.size == 0:
        return n, np.arange(n, dtype=np.int64)
    idx = np.int32 if max(n, eu.size) < 1 << 31 else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(eu, minlength=n), out=indptr[1:])
    indices = ev[np.argsort(eu, kind="stable")].astype(idx, copy=False)
    graph = csr_matrix((np.ones(eu.size), indices, indptr), shape=(n, n))
    ncomp, labels = connected_components(graph, directed=False)
    # scipy numbers components in first-appearance order; renumber otherwise
    if labels[0] != 0 or np.any(np.diff(np.maximum.accumulate(labels)) > 1):
        labels = first_seen_labels(labels)
    return int(ncomp), labels.astype(np.int64)  # int32 would wrap lo * ncomp + hi past 46341


@dataclass(frozen=True)
class Components:
    """Connected components of an edge-deleted graph.

    Components are numbered by their smallest contained vertex, ascending,
    so the labelling is deterministic.
    """

    component_of: tuple[int, ...]
    count: int
    members: tuple[tuple[int, ...], ...]


def components_after_deletion(g: Graph, removed: Iterable[int]) -> Components:
    """Components of ``g`` with the edges at indices ``removed`` deleted.

    A depth-first search over ``g.adj`` that skips the deleted edges; only
    vertices incident to a deleted edge pay for filtering their neighbours.
    """
    cut: dict[int, set[int]] = {}
    for i in removed:
        if not (0 <= i < g.m):
            raise GraphError(f"unknown edge index {i}")
        u, v = g.edges[i]
        cut.setdefault(u, set()).add(v)
        cut.setdefault(v, set()).add(u)
    adj = g.adj
    comp = [-1] * g.n
    members = []
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        cid = len(members)
        comp[start] = cid
        group = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            gone = cut.get(u)
            for v in adj[u]:
                if comp[v] < 0 and not (gone and v in gone):
                    comp[v] = cid
                    group.append(v)
                    stack.append(v)
        group.sort()
        members.append(tuple(group))
    return Components(tuple(comp), len(members), tuple(members))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines hold two whitespace-separated decimal vertex indices; lines starting
    with '#' are ignored.  An optional first line "n m" fixes the vertex count
    (it is treated as a header only when exactly m edge lines follow).
    """
    rows: list[tuple[int, int, int]] = []  # (lineno, a, b)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {line!r}") from None
        rows.append((lineno, a, b))
    if not rows:
        raise ParseError("no edges found")
    first_line, first_a, first_b = rows[0]
    if first_b == len(rows) - 1 and first_a >= 1:
        n, pairs = first_a, rows[1:]
    else:
        n, pairs = max(max(a, b) for _, a, b in rows) + 1, rows
    edges = []
    seen = set()
    for lineno, a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"line {lineno}: vertex out of range for n={n}")
        if a == b:
            raise ParseError(f"line {lineno}: self-loop at vertex {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise ParseError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    # the pairs are checked above; only connectivity is left to test
    g = Graph(n, edges, validate=False)
    if not _is_connected(n, g.adj):
        raise ParseError("graph is disconnected")
    return g


def format_edge_list(g: Graph) -> str:
    """Emit the edge-list format with an "n m" header (round-trips exactly)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
