"""Seeded inputs and reference answers for the benchmark workloads.

Every workload is a list of instances.  An instance is a set of input files
written into a work directory plus the ``topocut compute`` arguments that
solve it and the answers it must print.  Inputs depend only on the seed and
on the stated sizes, so two runs with one seed solve identical files.

Reference answers never come from the route the program takes:

* graphs: the brute-force pair sums of ``topocut.indices`` over distances
  from ``scipy.sparse.csgraph`` (not from ``topocut.graph``);
* phenylene placements: degree distance and Gutman index from
  ``dd_gut_via_squeeze`` (benzenoid squeeze, not the phenylene's quotient
  trees).  The squeeze gives no Wiener index, so a check set of small
  placements is solved as well and all of its indices are compared with the
  brute-force oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from topocut.graph import Graph
from topocut.indices import wiener_plus, wiener_weighted
from topocut.phenylene import dd_gut_via_squeeze

# Axial offsets of the six hexagonal-lattice neighbours, in turning order.
HEX_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


@dataclass
class Instance:
    """One solve: CLI arguments (input paths relative to the work directory)
    and the expected ``indices`` of the JSON report, as strings."""

    name: str
    argv: list[str]
    expected: dict[str, str]
    files: dict[str, str]  # relative path -> text

    def spec(self, workdir: Path) -> dict:
        argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in self.argv]
        return {"name": self.name, "argv": argv, "expected": self.expected}


# ---------------------------------------------------------------- generators


def random_connected_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random attachment tree plus m - n + 1 distinct random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    out = sorted(edges)
    rng.shuffle(out)
    return out


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """Apply a random vertex permutation and a random edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def hamming_edges(factors: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Cartesian product K_a x K_b x ...: vertices are mixed-radix tuples,
    adjacent when they differ in exactly one coordinate."""
    n = 1
    for f in factors:
        n *= f
    stride = 1
    edges = []
    for f in factors:
        for v in range(n):
            digit = (v // stride) % f
            for d in range(digit + 1, f):
                edges.append((v, v + (d - digit) * stride))
        stride *= f
    return n, edges


def house_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Ladder of k rungs with an apex over the first rung (2k+1 vertices)."""
    edges = [(0, 2 * k), (1, 2 * k)]
    edges += [(2 * j, 2 * j + 1) for j in range(k)]
    for j in range(k - 1):
        edges += [(2 * j, 2 * j + 2), (2 * j + 1, 2 * j + 3)]
    return 2 * k + 1, edges


def twin_blowup(
    n: int, base_edges, sizes: list[int], closed: bool
) -> tuple[int, list[tuple[int, int]]]:
    """Replace base vertex v by sizes[v] twins: open twins share N(v), closed
    twins are also pairwise adjacent."""
    start = [0] * (n + 1)
    for v in range(n):
        start[v + 1] = start[v] + sizes[v]
    edges = []
    for u, v in base_edges:
        edges += [(x, y) for x in range(start[u], start[u + 1])
                  for y in range(start[v], start[v + 1])]
    if closed:
        for v in range(n):
            edges += [(x, y) for x in range(start[v], start[v + 1])
                      for y in range(x + 1, start[v + 1])]
    return start[n], edges


def kinked_chain(h: int, rng: random.Random) -> list[tuple[int, int]]:
    """Catacondensed chain of h cells with seed-drawn kinks.

    Each step keeps the direction (L) or turns by one (A+, A-), with the
    direction confined to three consecutive lattice directions.  Every step
    then advances along 2q + r, so the chain never meets or touches itself
    and its inner dual is a path.
    """
    cells = [(0, 0)]
    turn = 0  # direction index HEX_DIRECTIONS[turn % 6], turn in {-1, 0, 1}
    for _ in range(h - 1):
        if len(cells) > 1:
            options = [t for t in (turn - 1, turn, turn + 1) if -1 <= t <= 1]
            turn = turn if rng.random() < 0.5 else rng.choice(options)
        dq, dr = HEX_DIRECTIONS[turn % 6]
        q, r = cells[-1]
        cells.append((q + dq, r + dr))
    return cells


def linear_chain(h: int) -> list[tuple[int, int]]:
    return [(i, 0) for i in range(h)]


# ---------------------------------------------------------------- file formats


def edge_list_text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def placement_text(cells) -> str:
    return "\n".join(f"{q} {r}" for q, r in cells) + "\n"


def weights_text(a, b) -> str:
    return "\n".join(f"{v} {x} {y}" for v, (x, y) in enumerate(zip(a, b))) + "\n"


def random_weights(n: int, rng: random.Random, fractions: bool):
    """Positive weights 1..9; with ``fractions``, a quarter of them p/2 or p/3."""

    def one():
        if fractions and rng.random() < 0.25:
            return Fraction(rng.randint(1, 9), rng.randint(2, 3))
        return rng.randint(1, 9)

    return [one() for _ in range(n)], [one() for _ in range(n)]


# ---------------------------------------------------------------- references


def distance_rows(n: int, edges) -> list[list[int]]:
    """All-pairs hop distances from scipy's csgraph BFS, as Python ints."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    mat = coo_matrix((np.ones(len(arr)), (arr[:, 0], arr[:, 1])), shape=(n, n))
    dist = shortest_path(mat.tocsr(), method="D", directed=False, unweighted=True)
    if not np.isfinite(dist).all():
        raise ValueError("reference graph is disconnected")
    return dist.astype(np.int64).tolist()


def oracle_indices(n: int, edges, a=None, b=None) -> dict[str, str]:
    """Every index the CLI reports, by brute-force pair sums."""
    g = Graph(n, edges)
    d = distance_rows(n, edges)
    degs = [len(r) for r in g.adj]
    out = {
        "wiener": wiener_weighted(g, [1] * n, d),
        "degree_distance": wiener_plus(g, degs, d),
        "gutman": wiener_weighted(g, degs, d),
    }
    if a is not None:
        out["wiener_weighted"] = wiener_weighted(g, a, d)
        out["wiener_plus"] = wiener_plus(g, a, d)
        # a(u)b(v) + a(v)b(u) = (a+b)(u)(a+b)(v) - a(u)a(v) - b(u)b(v)
        ab = [x + y for x, y in zip(a, b)]
        out["wiener_double"] = (
            wiener_weighted(g, ab, d) - out["wiener_weighted"] - wiener_weighted(g, b, d)
        )
    return {k: str(v) for k, v in out.items()}


def phenylene_edges(cells) -> tuple[int, list[tuple[int, int]]]:
    """Phenylene of a chain placement built from the definition: six vertex
    copies per hexagon, and a square across every shared lattice edge."""
    index = {c: i for i, c in enumerate(cells)}
    edges = []
    for i in range(len(cells)):
        edges += [(6 * i + k, 6 * i + (k + 1) % 6) for k in range(6)]
    for i, (q, r) in enumerate(cells):
        for k, (dq, dr) in enumerate(HEX_DIRECTIONS):
            j = index.get((q + dq, r + dr))
            if j is not None and j > i:
                # corner k, k+1 of cell i meet corners k+4, k+3 of cell j
                edges.append((6 * i + k, 6 * j + (k + 4) % 6))
                edges.append((6 * i + (k + 1) % 6, 6 * j + (k + 3) % 6))
    return 6 * len(cells), edges


# ---------------------------------------------------------------- workloads


def graph_instance(name, n, edges, a=None, b=None, extra=()) -> Instance:
    files = {f"{name}.edges": edge_list_text(n, edges)}
    argv = ["compute", f"@{name}.edges"]
    if a is not None:
        files[f"{name}.weights"] = weights_text(a, b)
        argv += ["--weights", f"@{name}.weights"]
    argv += [*extra, "--json"]
    return Instance(name, argv, oracle_indices(n, edges, a, b), files)


def placement_instance(name, cells, oracle: bool) -> Instance:
    if oracle:
        expected = oracle_indices(*phenylene_edges(cells))
    else:
        dd, gut = dd_gut_via_squeeze(cells)
        expected = {"degree_distance": str(dd), "gutman": str(gut)}
    files = {f"{name}.cells": placement_text(cells)}
    return Instance(name, ["compute", "--cells", f"@{name}.cells", "--json"], expected, files)


# Four h = 5000 placements hold the median and four h = 10000 the tail
# percentile: at 3 to 10 rounds, the 11th-slowest solve is an h = 10000 one.
PHENYLENE_SIZES = (1000, 1000, 2000, 2000, *[5000] * 4, *[10000] * 4, 50000)
PHENYLENE_CHECK_SIZES = (2, 7, 16, 40)


def phenylene_trees(seed: int, sizes=PHENYLENE_SIZES, check_sizes=PHENYLENE_CHECK_SIZES):
    rng = random.Random(f"phenylene_trees/{seed}")
    timed = []
    for i, h in enumerate(sizes):
        cells = linear_chain(h) if i % 2 == 0 else kinked_chain(h, rng)
        kind = "linear" if i % 2 == 0 else "kinked"
        timed.append(placement_instance(f"phe{i}_{kind}_h{h}", cells, oracle=False))
    check = [
        placement_instance(f"check{i}_h{h}", kinked_chain(h, rng), oracle=True)
        for i, h in enumerate(check_sizes)
    ]
    return check, timed


# (n, m, weights): weights None, "int" (1..9) or "frac" (a quarter p/q).
# Unlike instances take unlike times, so the median and the tail percentile
# each fall inside a class of like instances: the six unweighted n = 250
# graphs hold the middle, the three weighted n = 400, m = 500 graphs the tail.
CUTS_SIZES = (
    (100, 125, "frac"), (100, 150, "int"), (100, 200, "frac"),
    *[(250, 375, None)] * 6,
    *[(400, 500, "int")] * 3, (400, 800, "frac"),
)


def cuts_random(seed: int, sizes=CUTS_SIZES):
    rng = random.Random(f"cuts_random/{seed}")
    timed = []
    for i, (n, m, weights) in enumerate(sizes):
        edges = random_connected_edges(n, m, rng)
        a = b = None
        if weights:
            a, b = random_weights(n, rng, fractions=weights == "frac")
        timed.append(graph_instance(f"rand{i}_n{n}_m{m}", n, edges, a, b))
    return [], timed


HAMMING_FACTORS = (
    (2,) * 5, (2,) * 6, (2,) * 7, (2,) * 8,
    (3, 4, 5), (3, 3, 3, 3), (5, 5, 4), (3, 4, 5, 2), (4, 4, 3, 3), (5, 4, 3, 3),
)
HOUSE_SIZES = (50, 100, 200)


def hamming_products(seed: int, factors=HAMMING_FACTORS, houses=HOUSE_SIZES):
    rng = random.Random(f"hamming_products/{seed}")
    shapes = [("K" + "x".join(map(str, f)), *hamming_edges(f)) for f in factors]
    shapes += [(f"house{k}", *house_edges(k)) for k in houses]
    timed = [
        graph_instance(f"ham{i}_{label}", n, relabel(n, edges, rng))
        for i, (label, n, edges) in enumerate(shapes)
    ]
    return [], timed


# (base n, closed twins?); open n = 200 bases hold the middle and, at 3 to
# 5 rounds, the tail percentile, as above.
TWIN_SIZES = (
    (100, False), (100, True), (150, True),
    *[(200, False)] * 4,
    (300, False), (300, True),
)


def twins_reduce(seed: int, sizes=TWIN_SIZES):
    rng = random.Random(f"twins_reduce/{seed}")
    timed = []
    for i, (n, closed) in enumerate(sizes):
        base = random_connected_edges(n, 3 * n // 2, rng)
        # sizes 1, 2, 3 in a seeded order within each run of three vertices:
        # the blown-up size is fixed, and no size gathers the early, high-degree
        # vertices of the attachment tree
        class_sizes = []
        for start in range(0, n, 3):
            block = [1, 2, 3][: n - start]
            rng.shuffle(block)
            class_sizes += block
        nn, edges = twin_blowup(n, base, class_sizes, closed)
        kind = "closed" if closed else "open"
        timed.append(graph_instance(
            f"twins{i}_{kind}_n{n}", nn, relabel(nn, edges, rng),
            extra=("--method", "reduce"),
        ))
    return [], timed


WORKLOADS = {
    "phenylene_trees": phenylene_trees,
    "cuts_random": cuts_random,
    "hamming_products": hamming_products,
    "twins_reduce": twins_reduce,
}


def write_spec(check, timed, workdir: Path, trace: int, rounds: int) -> dict:
    """Write the instances' input files; return the worker's spec."""
    for inst in check + timed:
        for rel, text in inst.files.items():
            (workdir / rel).write_text(text)
    return {
        "trace": trace,
        "rounds": rounds,
        "check": [i.spec(workdir) for i in check],
        "timed": [i.spec(workdir) for i in timed],
    }
