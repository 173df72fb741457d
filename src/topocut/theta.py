"""The Djokovic-Winkler edge relation, its transitive closure, coarser edge
partitions, and quotient graphs.

Two edges u1v1 and u2v2 are theta-related iff
d(u1,u2) + d(v1,v2) != d(u1,v2) + d(v1,u2).  The transitive closure of this
relation partitions the edge set into theta*-classes, the basic unit of the
cut method.  Edges are identified by their index in ``Graph.edges``
throughout; the CLI layer converts "u-v" spellings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, GraphError, component_labels, distance_matrix


class PartitionError(ValueError):
    """An edge partition that is not coarser than the theta*-partition."""


@dataclass(frozen=True)
class ThetaClasses:
    """The theta*-partition of the edge set as tuples, for API callers;
    the cut engine reads theta*'s label array and core distances instead.

    Classes are ordered by their smallest edge index; edge indices within a
    class ascend, and ``class_of`` is each edge's class.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class EdgePartition:
    """A partition of the edge set into blocks of whole theta*-classes.

    Build through :func:`validate_coarser` (full check), or directly when
    the blocks are coarser by construction; ``CutEngine`` checks that they
    partition the m edges, not that they join whole classes.  An engine over
    theta* itself takes its label array and builds none.
    """

    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient of a graph by an edge subset.

    Vertices of ``graph`` are the connected components after deleting the
    subset; ``component_of`` maps each original vertex to its component.
    """

    graph: Graph
    component_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def _groups(labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Positions of each label 0, 1, ..., ascending within each group."""
    members = np.argsort(labels, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(labels)).tolist()
    return tuple(tuple(members[lo:hi]) for lo, hi in zip([0] + bounds, bounds))


# Entries of the relation test per block of tree edges, which bounds its
# temporaries (a few bytes per entry) whatever the size of the graph.
_RELATION_BLOCK = 1 << 18

# Tree edges in the first relation block; each block after it is
# ``_BLOCK_GROWTH`` times larger, up to the entry budget.
_FIRST_BLOCK = 8
_BLOCK_GROWTH = 4


def theta_star_classes(g: Graph) -> ThetaClasses:
    """Theta*-classes (:func:`_theta_labels`) as the tuples of a
    :class:`ThetaClasses`."""
    labels = _theta_labels(g)[0]
    return ThetaClasses(_groups(labels), tuple(labels.tolist()))


def _theta_labels(g: Graph) -> tuple[np.ndarray, np.ndarray | None]:
    """Each edge's theta*-class, classes numbered by their smallest edge, by
    Feder's spanning-tree restriction of theta on the 2-core only; and the
    core distance matrix it ran on (None when the core has no edge).

    Every edge of a pendant tree is a bridge, and a bridge is a theta*-class
    of its own: Theta-related edges lie in one biconnected component
    (W. Imrich and S. Klavzar, "Product Graphs", 2000).  So the pendant trees
    are peeled first (``Graph.peel``), and theta* runs on the 2-core with
    the core's own distance matrix.  The core is isometric, as no shortest
    path between two core vertices enters a pendant tree.  A tree's core is
    one vertex, and it needs no distances.

    Theta* is the transitive closure of theta restricted to pairs with one
    edge in a fixed spanning tree T (T. Feder, "Product graph
    representations", J. Graph Theory 16, 1992).  With T a BFS tree, each
    tree edge xy gives delta(w) = d(x,w) - d(y,w), and an edge uv is
    theta-related to xy iff delta(u) != delta(v).  The test runs on whole
    rows of the distance matrix: (n - 1) x m entries in all, in blocks of
    tree edges (``_feder_links``), each edge linked to the first edge of
    its class, so that only pairs not yet settled reach a merge.
    """
    links = np.arange(g.m)  # each edge's link to the smallest edge of its class
    peel = g.peel
    h = g if peel.core.size == g.n else Graph(peel.core.size, peel.core_ends, validate=False)
    core_distances = None
    if h.m:
        core_distances = distance_matrix(h)
        links[peel.core_edges] = peel.core_edges[_feder_links(h.edge_array, core_distances)]
    # classes numbered by their smallest edge
    return np.unique(links, return_inverse=True)[1], core_distances


def _feder_links(ends: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Each edge's link to the smallest edge of its theta*-class, by
    Feder's test on the distance matrix ``d`` of the connected graph with
    edge rows ``ends``.

    The tree edges run in blocks that start at ``_FIRST_BLOCK`` and grow
    by ``_BLOCK_GROWTH``, up to ``_RELATION_BLOCK`` entries of the
    relation test, gathered from the block's rows of ``d`` alone.  A pair
    counts only while its two edges' links differ: the first small block
    settles most classes, and every later block hands on only the pairs
    that still merge something.  One ``component_labels`` call over those
    pairs of links merges whole classes, and each link moves to the first
    edge of its new class, so the work of a block follows the merges it
    makes, not the related pairs.  Once every link is edge 0 there is one
    class, and no later block can change it.
    """
    m = len(ends)
    u, v = ends[:, 0], ends[:, 1]
    # BFS tree from vertex 0: the first edge into each vertex from a vertex
    # one step closer to the root.
    du, dv = d[0, u], d[0, v]
    down = np.flatnonzero(du != dv)
    child = np.where(du[down] > dv[down], u[down], v[down])
    tree = down[np.unique(child, return_index=True)[1]]
    x, y = u[tree], v[tree]
    links = np.arange(m)
    widest = max(1, _RELATION_BLOCK // m)
    lo, step = 0, _FIRST_BLOCK
    while lo < len(tree) and links.any():
        hi = min(lo + step, lo + widest, len(tree))
        # one row per vertex, so the gathers below take whole rows
        delta = (d[x[lo:hi]] - d[y[lo:hi]]).T.copy()
        related = delta[u] != delta[v]
        related &= links[:, None] != links[tree[lo:hi]]  # settled pairs merge nothing
        j, i = np.divmod(np.flatnonzero(related), hi - lo)
        if i.size:
            labels = component_labels(m, links[tree[lo + i]], links[j])[1]
            # labels are numbered by smallest edge, so each label's first
            # edge is where their running maximum steps up
            first = np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))
            links = first[labels[links]]
        lo, step = hi, step * _BLOCK_GROWTH
    return links


def validate_coarser(
    g: Graph, blocks: Iterable[Iterable[int]], classes: ThetaClasses | None = None
) -> EdgePartition:
    """Check that ``blocks``, as given, partition E(g) into unions of
    theta*-classes, on theta*'s label array; each block comes back sorted."""
    blocks = [tuple(b) for b in blocks]
    block_of = _check_is_partition(g, blocks)
    labels = _theta_labels(g)[0] if classes is None else np.array(classes.class_of, dtype=np.intp)
    first = np.unique(labels, return_index=True)[1]  # each class's smallest edge
    split = labels[block_of != block_of[first][labels]]
    if split.size:
        cls = np.flatnonzero(labels == split.min()).tolist()
        edges = ", ".join(f"{g.edges[e][0]}-{g.edges[e][1]}" for e in cls)
        raise PartitionError(f"theta*-class {split.min()} ({edges}) is split across "
                             f"blocks {np.unique(block_of[cls]).tolist()}")
    return EdgePartition(tuple(tuple(sorted(b)) for b in blocks))


def _check_is_partition(g: Graph, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Every index names an edge and every edge lies in exactly one block,
    in blocks of any order: one range test over all entries, then one
    ``bincount``.  Returns each edge's block."""
    m = g.m
    entries = list(chain.from_iterable(blocks))
    flat = np.array(entries)  # past int64 numpy picks a dtype exact below 2^53 > m
    bad = np.flatnonzero((flat < 0) | (flat >= m))
    if bad.size:
        raise PartitionError(f"unknown edge index {entries[bad[0]]}")
    flat = flat.astype(np.intp)
    distinct = int(np.count_nonzero(np.bincount(flat, minlength=m)))
    if len(entries) != m or distinct != m:
        raise PartitionError(
            f"blocks do not partition the edge set ({len(entries)} entries, "
            f"{distinct} distinct, {m} edges)"
        )
    block_of = np.empty(m, dtype=np.intp)
    block_of[flat] = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    return block_of


def quotient(g: Graph, f: Iterable[int]) -> QuotientGraph:
    """Quotient graph g/F: the components of g minus F, numbered by smallest
    vertex, adjacent when an edge of F joins them."""
    f = sorted(set(f))
    if f and not (0 <= f[0] and f[-1] < g.m):
        bad = f[0] if f[0] < 0 else f[bisect_left(f, g.m)]
        raise GraphError(f"unknown edge index {bad}")
    cut = np.zeros(g.m, dtype=bool)
    cut[f] = True
    count, labels, qu, qv = _quotient(g.n, *g.edge_array.T, cut)
    qg = Graph(count, np.column_stack((qu, qv)))
    return QuotientGraph(qg, tuple(labels.tolist()), _groups(labels))


def _quotient(
    n: int, eu: np.ndarray, ev: np.ndarray, cut: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Quotient by the edges where ``cut`` holds of the graph on n vertices
    with edges (eu, ev): the component count, each vertex's component
    (numbered by smallest vertex) and the cross edges (qu < qv), sorted and
    once each."""
    count, labels = component_labels(n, eu[~cut], ev[~cut])
    cu, cv = labels[eu[cut]], labels[ev[cut]]
    codes = np.minimum(cu, cv) * count + np.maximum(cu, cv)
    # a stable sort is adaptive: the codes often come in nearly sorted
    codes = np.sort(codes[cu != cv], kind="stable")
    codes = codes[np.flatnonzero(np.diff(codes, prepend=-1))]
    return count, labels, codes // count, codes % count


def format_classes(g: Graph, classes: ThetaClasses) -> str:
    """One line per class, edges spelled "u-v" in ascending edge order."""
    lines = []
    for cls in classes.classes:
        lines.append(" ".join(f"{g.edges[e][0]}-{g.edges[e][1]}" for e in cls))
    return "\n".join(lines) + "\n"
