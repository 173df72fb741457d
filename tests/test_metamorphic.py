"""Metamorphic relations of the indices, checked through ``compute --json``
with no oracle: each relation ties the indices of two or three inputs.

- scaling: a -> c a multiplies W*(a) by c^2 and W+(a) and W(a, b) by c, and
  leaves W, DD and Gut as they were;
- additivity: W(a, b + b') = W(a, b) + W(a, b');
- relabelling: a vertex permutation applied to the edge file and the
  weights, with the edge lines shuffled, changes no index; so do shuffled
  lines of a placement file.

The weights mix ints and Fractions, and c = 2^40 takes W*(a) past 2^63 on
every input.  Every route reports all six indices.
"""

import json
import random
from fractions import Fraction

import pytest

from topocut.cli import main
from topocut.cut_method import INDEX_TERMS
from topocut.families import (
    hypercube_graph, phe6_placement, random_connected_graph, windmill_graph,
)
from topocut.phenylene import format_placement

# each route's input: a graph, written as an edge file, or a placement
INPUTS = {
    "cuts": random_connected_graph(30, 45, seed=3),
    "hamming": hypercube_graph(4),
    "reduce": windmill_graph(5),
    "trees": phe6_placement(),
}
STRUCTURAL = ("wiener", "degree_distance", "gutman")


def vertex_count(route):
    return 6 * len(INPUTS[route]) if route == "trees" else INPUTS[route].n


def random_weights(rng, n):
    return [rng.choice((rng.randint(1, 9), Fraction(rng.randint(1, 20), rng.randint(2, 7))))
            for _ in range(n)]


def write_source(tmp_path, route, rng):
    """The route's input written as a file, with its lines shuffled and a
    graph's vertices permuted by ``rng`` unless it is None: compute's
    arguments and each vertex's new id."""
    path = tmp_path / f"{route}.txt"
    if route == "trees":
        lines = format_placement(INPUTS[route]).splitlines(keepends=True)
        if rng is not None:
            rng.shuffle(lines)
        path.write_text("".join(lines))
        return ["--cells", str(path)], range(vertex_count(route))
    g = INPUTS[route]
    perm, edges = list(range(g.n)), list(g.edges)
    if rng is not None:
        rng.shuffle(perm)
        edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
                 for u, v in edges]
        rng.shuffle(edges)
    path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return [str(path)], perm


def solve(tmp_path, capsys, route, a, b, rng=None):
    """compute --json's indices with weights a and b, Fraction strings read
    back as Fractions; ``rng`` relabels the input (``write_source``) and
    shuffles the weight lines."""
    source, perm = write_source(tmp_path, route, rng)
    lines = [f"{perm[v]} {x} {y}\n" for v, (x, y) in enumerate(zip(a, b))]
    if rng is not None:
        rng.shuffle(lines)
    weights = tmp_path / "weights.txt"
    weights.write_text("".join(lines))
    assert main(["compute", *source, "--weights", str(weights), "--method", route, "--json"]) == 0
    r = json.loads(capsys.readouterr().out)
    assert r["method"] == route
    return {k: Fraction(v) if isinstance(v, str) else v for k, v in r["indices"].items()}


@pytest.mark.parametrize("c", [Fraction(3, 7), 2**40], ids=["3/7", "2^40"])
@pytest.mark.parametrize("route", sorted(INPUTS))
def test_scaling_a(tmp_path, capsys, route, c):
    rng = random.Random(1)
    n = vertex_count(route)
    a, b = random_weights(rng, n), random_weights(rng, n)
    base = solve(tmp_path, capsys, route, a, b)
    scaled = solve(tmp_path, capsys, route, [c * x for x in a], b)
    assert list(scaled) == list(base) == list(INDEX_TERMS)
    assert all(scaled[k] == base[k] for k in STRUCTURAL)
    assert scaled["wiener_weighted"] == c * c * base["wiener_weighted"]
    for k in ("wiener_plus", "wiener_double"):
        assert scaled[k] == c * base[k]
    if c == 2**40:
        assert scaled["wiener_weighted"] > 2**63


@pytest.mark.parametrize("route", sorted(INPUTS))
def test_additivity_in_b(tmp_path, capsys, route):
    rng = random.Random(2)
    n = vertex_count(route)
    a, b, b2 = (random_weights(rng, n) for _ in range(3))
    one, two = solve(tmp_path, capsys, route, a, b), solve(tmp_path, capsys, route, a, b2)
    both = solve(tmp_path, capsys, route, a, [x + y for x, y in zip(b, b2)])
    assert both["wiener_double"] == one["wiener_double"] + two["wiener_double"]
    assert both == {**one, "wiener_double": both["wiener_double"]}


@pytest.mark.parametrize("route", sorted(INPUTS))
def test_relabelling(tmp_path, capsys, route):
    rng = random.Random(3)
    n = vertex_count(route)
    a, b = random_weights(rng, n), random_weights(rng, n)
    assert solve(tmp_path, capsys, route, a, b, rng) == solve(tmp_path, capsys, route, a, b)
