import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import topocut.reduction as reduction
from topocut.cli import main
from topocut.graph import Graph, GraphError, all_pairs_distances, build_graph, format_edge_list
from topocut.indices import (
    DoubleWeightedGraph,
    WeightedGraph,
    pairwise_mixed_sum,
    pairwise_product_sum,
    wiener_double,
    wiener_weighted,
)
from topocut.reduction import (
    ReductionStep,
    collapse_plan,
    r_classes,
    reduce_fully,
    reduce_fully_single,
    reduce_once_r,
    reduce_once_r_single,
    reduce_once_s,
    reduce_once_s_single,
    s_classes,
)
from topocut.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    windmill_graph,
)

from strategies import connected_graphs


def blowup(g: Graph, sizes, closed=False, seed=0):
    """Replace vertex v by sizes[v] copies sharing v's neighbourhood.

    Open blowup keeps copies non-adjacent (R-classes); closed blowup makes
    them cliques (S-classes).
    """
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = []
    for u, v in g.edges:
        for i in range(sizes[u]):
            for j in range(sizes[v]):
                edges.append((offsets[u] + i, offsets[v] + j))
    if closed:
        for v in range(g.n):
            for i in range(sizes[v]):
                for j in range(i + 1, sizes[v]):
                    edges.append((offsets[v] + i, offsets[v] + j))
    return build_graph(total, edges)


def test_r_classes_examples():
    assert r_classes(star_graph(4)) == ((0,), (1, 2, 3))
    assert r_classes(cycle_graph(5)) == tuple((v,) for v in range(5))
    assert r_classes(complete_bipartite_graph(2, 3)) == ((0, 1), (2, 3, 4))


def test_s_classes_examples():
    assert s_classes(complete_graph(4)) == ((0, 1, 2, 3),)
    assert s_classes(path_graph(3)) == ((0,), (1,), (2,))
    assert s_classes(cycle_graph(4)) == tuple((v,) for v in range(4))
    assert r_classes(cycle_graph(4)) == ((0, 2), (1, 3))


def test_reduce_once_r_star():
    k13 = star_graph(4)
    ones = (1,) * 4
    reduced, corr = reduce_once_r(DoubleWeightedGraph(k13, ones, ones), 1)
    assert reduced.g.n == 2
    assert reduced.a == (1, 3) and reduced.b == (1, 3)
    assert corr == 12  # 3 pairs x 2(1+1)
    assert wiener_double(reduced) + corr == wiener_double(
        DoubleWeightedGraph(k13, ones, ones)
    )


def test_reduce_once_r_singleton_is_identity():
    p3 = path_graph(3)
    dwg = DoubleWeightedGraph(p3, (1, 2, 3), (4, 5, 6))
    reduced, corr = reduce_once_r(dwg, 1)
    assert corr == 0 and reduced is dwg


def test_reduce_once_r_single_star():
    k13 = star_graph(4)
    wg = WeightedGraph(k13, (1, 1, 1, 1))
    reduced, corr = reduce_once_r_single(wg, 1)
    assert corr == 6  # 2 * 3 pairs
    assert wiener_weighted(reduced.g, reduced.w) + corr == wiener_weighted(k13, wg.w)
    assert wiener_weighted(reduced.g, reduced.w) == 3  # K2 weighted (1, 3)


def test_uniform_class_correction_closed_form():
    # uniform weights k1, k2 on a class C: correction 2 k1 k2 |C| (|C|-1)
    g = complete_bipartite_graph(2, 4)
    k1, k2 = 3, 5
    a = (7, 7) + (k1,) * 4
    b = (2, 2) + (k2,) * 4
    _, corr = reduce_once_r(DoubleWeightedGraph(g, a, b), 2)
    assert corr == 2 * k1 * k2 * 4 * 3


def test_reduce_once_s_cliques():
    k3 = complete_graph(3)
    ones3 = (1,) * 3
    reduced, corr = reduce_once_s(DoubleWeightedGraph(k3, ones3, ones3), 0)
    assert reduced.g.n == 1
    assert corr == 6 == wiener_double(DoubleWeightedGraph(k3, ones3, ones3))
    k4 = complete_graph(4)
    ones4 = (1,) * 4
    reduced, corr = reduce_once_s(DoubleWeightedGraph(k4, ones4, ones4), 0)
    assert corr == 12 == 2 * 6


def test_reduce_once_s_single():
    k3 = complete_graph(3)
    reduced, corr = reduce_once_s_single(WeightedGraph(k3, (1, 1, 1)), 0)
    assert corr == 3 == wiener_weighted(k3, (1, 1, 1))
    assert reduced.g.n == 1


def test_reduce_fully_path_untouched():
    p5 = path_graph(5)
    dwg = DoubleWeightedGraph(p5, (1,) * 5, (1,) * 5)
    reduced, total, steps = reduce_fully(dwg)
    assert total == 0 and steps == () and reduced.g.n == 5


def test_reduce_fully_complete_bipartite():
    g = complete_bipartite_graph(3, 4)
    dwg = DoubleWeightedGraph(g, (1,) * 7, (1,) * 7)
    reduced, total, steps = reduce_fully(dwg)
    kinds = [s.kind for s in steps]
    assert kinds[:2] == ["R", "R"]
    assert wiener_double(reduced) + total == wiener_double(dwg)


def test_reduce_fully_windmill():
    g = windmill_graph(3)
    a = tuple(range(1, g.n + 1))
    b = tuple(2 for _ in range(g.n))
    dwg = DoubleWeightedGraph(g, a, b)
    reduced, total, steps = reduce_fully(dwg)
    assert any(s.kind == "S" for s in steps)
    assert wiener_double(reduced) + total == wiener_double(dwg)


@given(connected_graphs(min_n=2, max_n=8), st.integers(0, 10**6))
def test_conservation_on_blowups(g, seed):
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(g.n)]
    big = blowup(g, sizes, closed=rng.random() < 0.5, seed=seed)
    a = tuple(rng.randint(1, 9) for _ in range(big.n))
    b = tuple(rng.randint(1, 9) for _ in range(big.n))
    dwg = DoubleWeightedGraph(big, a, b)
    reduced, total, _ = reduce_fully(dwg)
    assert wiener_double(reduced) + total == wiener_double(dwg)
    wg = WeightedGraph(big, a)
    wreduced, wtotal, _ = reduce_fully_single(wg)
    assert wiener_weighted(wreduced.g, wreduced.w) + wtotal == wiener_weighted(big, a)


def test_reduction_order_independence():
    g = complete_bipartite_graph(3, 3)
    a = (1, 2, 3, 4, 5, 6)
    b = (6, 5, 4, 3, 2, 1)
    dwg = DoubleWeightedGraph(g, a, b)
    want = wiener_double(dwg)
    # order 1: collapse the side containing 0 first
    d1, c1 = reduce_once_r(dwg, 0)
    d1, c1b = reduce_once_r(d1, 1)
    # order 2: collapse the side containing 3 first
    d2, c2 = reduce_once_r(dwg, 3)
    d2, c2b = reduce_once_r(d2, 0)
    assert wiener_double(d1) + c1 + c1b == want
    assert wiener_double(d2) + c2 + c2b == want


@given(connected_graphs(min_n=2, max_n=9))
def test_class_distance_properties(g):
    d = all_pairs_distances(g)
    for kind, classes in (("R", r_classes(g)), ("S", s_classes(g))):
        for cls in classes:
            if len(cls) < 2:
                continue
            inside = set(cls)
            for i, x in enumerate(cls):
                for y in cls[i + 1 :]:
                    assert d[x][y] == (2 if kind == "R" else 1)
                for z in range(g.n):
                    if z not in inside:
                        assert d[x][z] == d[cls[0]][z]


@given(connected_graphs(min_n=2, max_n=9))
def test_outside_distances_preserved_after_collapse(g):
    cls = next((c for c in r_classes(g) if len(c) > 1), None)
    if cls is None:
        return
    rep = cls[0]
    ones = (1,) * g.n
    reduced, _ = reduce_once_r(DoubleWeightedGraph(g, ones, ones), rep)
    kept = [v for v in range(g.n) if v not in cls[1:]]
    d_old = all_pairs_distances(g)
    d_new = all_pairs_distances(reduced.g)
    for i, u in enumerate(kept):
        for j, v in enumerate(kept):
            if u not in cls and v not in cls:
                assert d_old[u][v] == d_new[i][j]


def test_random_suite_conservation():
    rng = random.Random(42)
    for case in range(30):
        base = random_connected_graph(rng.randint(2, 7), seed=rng.randrange(10**9))
        sizes = [rng.randint(1, 3) for _ in range(base.n)]
        g = blowup(base, sizes, closed=case % 2 == 0)
        a = tuple(rng.randint(1, 9) for _ in range(g.n))
        b = tuple(rng.randint(1, 9) for _ in range(g.n))
        dwg = DoubleWeightedGraph(g, a, b)
        reduced, total, steps = reduce_fully(dwg)
        assert wiener_double(reduced) + total == wiener_double(dwg)
        # no nontrivial class remains at the fixed point
        assert all(len(c) == 1 for c in r_classes(reduced.g))
        assert all(len(c) == 1 for c in s_classes(reduced.g))


# The per-step loop that the collapse plan replaced, kept as the reference:
# scan the classes, collapse the first nontrivial one, rebuild and rescan.


def _ref_classes(g, closed):
    groups = {}
    for v in range(g.n):
        key = tuple(sorted(g.adj[v] + (v,))) if closed else g.adj[v]
        groups.setdefault(key, []).append(v)
    return tuple(sorted((tuple(vs) for vs in groups.values()), key=lambda c: c[0]))


def _ref_collapse(g, members, c):
    drop = set(members) - {c}
    new_of = [-1] * g.n
    keep = []
    for v in range(g.n):
        if v not in drop:
            new_of[v] = len(keep)
            keep.append(v)
    edges = [
        (new_of[u], new_of[v])
        for u, v in g.edges
        if new_of[u] >= 0 and new_of[v] >= 0
    ]
    return Graph(len(keep), edges), new_of


def _ref_reduce_once(wg, members, c, factor):
    """One collapse of the per-step loop: the class ``members`` onto c."""
    g2, new_of = _ref_collapse(wg.g, members, c)
    vectors = [wg.w] if isinstance(wg, WeightedGraph) else [wg.a, wg.b]
    if len(vectors) == 1:
        corr = factor * pairwise_product_sum([wg.w[x] for x in members])
    else:
        corr = factor * pairwise_mixed_sum(
            [wg.a[x] for x in members], [wg.b[x] for x in members]
        )
    out = []
    for vec in vectors:
        w = [0] * g2.n
        for v in range(wg.g.n):
            if new_of[v] >= 0:
                w[new_of[v]] = vec[v]
        w[new_of[c]] = sum(vec[x] for x in members)
        out.append(tuple(w))
    reduced = WeightedGraph(g2, *out) if len(out) == 1 else DoubleWeightedGraph(g2, *out)
    return reduced, corr


def reference_reduce_fully(wg):
    steps = []
    total = 0
    changed = True
    while changed:
        changed = False
        for kind, closed, factor in (("R", False, 2), ("S", True, 1)):
            while True:
                cls = next((c for c in _ref_classes(wg.g, closed) if len(c) > 1), None)
                if cls is None:
                    break
                rep = cls[0]
                wg, corr = _ref_reduce_once(wg, cls, rep, factor)
                steps.append(ReductionStep(kind, cls, rep, corr))
                total += corr
                changed = True
    return wg, total, tuple(steps)


def _typed(x):
    """A value with its type, so 2 and Fraction(2) differ."""
    if isinstance(x, (tuple, list)):
        return tuple(_typed(y) for y in x)
    if isinstance(x, ReductionStep):
        return (x.kind, x.members, x.representative, _typed(x.correction))
    return (type(x).__name__, x)


# Vertex weights: small ints, p/q fractions, values near 2**53 and 2**63.
WEIGHTS = {
    "int": st.integers(1, 9),
    "fraction": st.builds(Fraction, st.integers(1, 20), st.integers(1, 7)),
    "near53": st.integers(2**53 - 50, 2**53 + 50),
    "near63": st.integers(2**63 - 50, 2**63 + 50),
}


@st.composite
def twin_graphs(draw):
    """Connected graphs and their open or closed blow-ups."""
    g = draw(connected_graphs(min_n=1, max_n=8))
    if g.n == 1 or draw(st.booleans()):  # open copies of K1 are disconnected
        return g
    sizes = draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    return blowup(g, sizes, closed=draw(st.booleans()))


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@given(data=st.data())
def test_plan_matches_per_step_reference(kind, data):
    g = data.draw(twin_graphs())
    a = tuple(data.draw(WEIGHTS[kind]) for _ in range(g.n))
    b = tuple(data.draw(WEIGHTS[kind]) for _ in range(g.n))
    for wg, ours in (
        (DoubleWeightedGraph(g, a, b), reduce_fully),
        (WeightedGraph(g, a), reduce_fully_single),
    ):
        want_g, want_total, want_steps = reference_reduce_fully(wg)
        got_g, got_total, got_steps = ours(wg)
        assert _typed(got_steps) == _typed(want_steps)
        assert _typed(got_total) == _typed(want_total)
        assert (got_g.g.n, got_g.g.edges) == (want_g.g.n, want_g.g.edges)
        assert got_g.g.adj == want_g.g.adj
        weights = (lambda x: (x.w,)) if isinstance(wg, WeightedGraph) else (lambda x: (x.a, x.b))
        assert _typed(weights(got_g)) == _typed(weights(want_g))


def test_plan_runs_phases_until_both_kinds_are_clean():
    # C4: R collapses each side, leaving P2, whose ends are S-twins
    plan = collapse_plan(cycle_graph(4))
    assert [kind for kind, _, _ in plan.phases] == ["R", "S"]
    assert plan.graph.n == 1
    # windmill: S collapses each blade's pair, leaving a star whose tips are
    # R-twins; collapsing them leaves P2 again
    g = windmill_graph(3)
    plan = collapse_plan(g)
    assert [kind for kind, _, _ in plan.phases] == ["S", "R", "S"]
    ref_steps = reference_reduce_fully(DoubleWeightedGraph(g, (1,) * g.n, (1,) * g.n))[2]
    assert plan.steps == tuple((s.kind, s.members, s.representative) for s in ref_steps)


def test_plan_rejects_disconnected_graph():
    with pytest.raises(GraphError):
        collapse_plan(Graph(3, [(0, 1)], require_connected=False))


def test_reduce_cost_is_per_phase_not_per_step(tmp_path, monkeypatch, capsys):
    """One ``compute --method reduce`` scans classes and builds graphs a
    bounded number of times per phase, however many classes collapse."""
    base = random_connected_graph(120, 180, seed=5)
    g = blowup(base, [2] * base.n)  # 120 open twin classes
    plan = collapse_plan(g)
    assert len(plan.steps) >= 100
    f = tmp_path / "blow.edges"
    f.write_text(format_edge_list(g))
    counts = {"scans": 0, "graphs": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reduction, "r_classes", counting(reduction.r_classes, "scans"))
    monkeypatch.setattr(reduction, "s_classes", counting(reduction.s_classes, "scans"))
    monkeypatch.setattr(Graph, "__init__", counting(Graph.__init__, "graphs"))
    assert main(["compute", str(f), "--method", "reduce", "--json"]) == 0
    phases = len(plan.phases)
    # at most two scans find nothing; graphs: parse, one per phase, the
    # reduced graph's one-block quotient
    assert counts["scans"] <= phases + 2
    assert counts["graphs"] <= phases + 2
    assert json.loads(capsys.readouterr().out)["breakdown"][0]["kind"] == "R"


def test_reduce_with_fraction_weights_equals_oracle(tmp_path, capsys):
    rng = random.Random(3)
    base = random_connected_graph(9, 13, seed=11)
    g = blowup(base, [rng.randint(1, 3) for _ in range(base.n)], closed=True)
    f = tmp_path / "blow.edges"
    f.write_text(format_edge_list(g))
    w = tmp_path / "blow.weights"
    w.write_text("".join(
        f"{v} {Fraction(rng.randint(1, 20), rng.randint(1, 6))} "
        f"{Fraction(rng.randint(1, 20), rng.randint(1, 6))}\n"
        for v in range(g.n)
    ))
    reports = {}
    for method in ("reduce", "oracle"):
        assert main(["compute", str(f), "--weights", str(w), "--method", method, "--json"]) == 0
        reports[method] = json.loads(capsys.readouterr().out)["indices"]
    assert len(reports["reduce"]) == 6
    assert reports["reduce"] == reports["oracle"]
