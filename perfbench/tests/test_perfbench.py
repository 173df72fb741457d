"""Tests of the benchmark harness itself, on small instances of each workload."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import topocut
import topocut.cli  # noqa: F401  (the tracer patches loaded modules only)
import reference
import workloads
from topocut.graph import Graph
from tracer import EXACT_COUNTS, LAYER_METRICS, Span, Tracer, round_counts, self_times
from worker import measure, solve

PERFBENCH = Path(__file__).resolve().parent.parent

SMALL = {
    "phenylene_trees": dict(sizes=(12, 30), check_sizes=(3, 8)),
    "cuts_random": dict(sizes=((20, 25, None), (20, 30, "int"), (24, 36, "frac"), (30, 60, None))),
    "hamming_products": dict(factors=((2, 2, 2), (3, 3)), houses=(4,)),
    "twins_reduce": dict(sizes=((12, False), (12, True))),
}


def small_spec(workload, tmp_path, trace=1, rounds=2, seed=5):
    check, timed = workloads.WORKLOADS[workload](seed, **SMALL[workload])
    tmp_path.mkdir(parents=True, exist_ok=True)
    return workloads.write_spec(check, timed, tmp_path, trace, rounds)


def topocut_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "topocut" or name.startswith("topocut.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_wrapped_name():
    before = topocut_bindings()
    init = vars(Graph)["__init__"]
    with Tracer():
        during = topocut_bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert ("topocut.cli", "main") in wrapped
        # a wrapped function is wrapped in every namespace that binds it
        originals = {id(before[key]) for key in wrapped}
        assert all(key in wrapped for key, value in before.items() if id(value) in originals)
        assert vars(Graph)["__init__"] is not init
    after = topocut_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert vars(Graph)["__init__"] is init


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_self_times_of_one_solve_fit_in_its_wall_time(workload, tmp_path):
    inst = small_spec(workload, tmp_path)["timed"][-1]
    with Tracer() as tracer:
        start = time.perf_counter()
        result = solve(inst["argv"], inst["expected"])
        wall = time.perf_counter() - start
    assert result.ok, result.error
    own = self_times(tracer.spans)
    assert [s.name for s in tracer.spans if s.parent is None] == ["cli"]
    assert min(own.values()) >= -1e-9
    assert sum(own.values()) <= wall


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_counts_repeat_exactly_across_traced_runs(workload, tmp_path):
    first = measure(small_spec(workload, tmp_path / "a"))
    second = measure(small_spec(workload, tmp_path / "b"))
    assert first["failed"] == second["failed"] == 0, first["errors"]
    assert set(first["layers"]) == {name for name, _ in LAYER_METRICS}
    counts = {k: first["layers"][k]["value"] for k in EXACT_COUNTS}
    assert counts == {k: second["layers"][k]["value"] for k in EXACT_COUNTS}
    assert any(counts.values())


def test_round_counts_nesting_and_self_times():
    root = Span("cli", None, 0.0, 10.0)
    outer = Span("indices.kernel", root, 1.0, 5.0, count=6)  # gutman
    inner = Span("indices.kernel", outer, 1.5, 4.5, count=6)  # its wiener_weighted
    apsp = Span("graph.apsp", inner, 2.0, 3.0, count=4)
    detect = Span("hamming.detect", root, 6.0, 8.0, count=0)  # returned False
    out = round_counts([root, outer, inner, apsp, detect], solves=1)
    assert out["indices.kernel.calls"] == 1 and out["indices.kernel.pairs"] == 6
    assert out["indices.kernel.self_s"] == 3.0  # 4 s minus the 1 s in APSP
    assert out["graph.apsp.bfs_sources"] == 4
    assert out["cli.self_s"] == 4.0
    assert out["hamming.detect.wasted_s"] == 2.0
    assert sum(v for k, v in out.items() if k.endswith(".self_s")) == root.duration


def test_corrupted_reference_raises_fail_ratio(tmp_path):
    spec = small_spec("cuts_random", tmp_path, trace=0, rounds=1)
    good = measure(spec)
    assert good["failed"] == 0
    inst = spec["timed"][0]
    inst["expected"]["wiener"] = str(int(inst["expected"]["wiener"]) + 1)
    bad = measure(spec)
    assert bad["failed"] == 2  # the warm-up solve and the timed one
    assert bad["failed"] / bad["attempted"] > 0
    assert "wrong wiener" in bad["errors"][0]


def test_missing_input_is_a_failed_solve(tmp_path):
    result = solve(["compute", str(tmp_path / "absent.edges"), "--json"], {"wiener": "1"})
    assert not result.ok and result.error == "exit code 2"


def test_tail_percentile_leaves_ten_solves_beyond(tmp_path):
    result = measure(small_spec("hamming_products", tmp_path, trace=0, rounds=10))
    n = result["solves"]
    assert n == 30
    assert result["tail_percentile"] == pytest.approx(100 * (n - 10) / n)
    m = result["metrics"]
    assert 0 < m["solve_p50_s"] <= m["solve_tail_s"]


def test_end_to_end_times_are_divided_by_the_speed_factor(tmp_path, monkeypatch):
    # a machine running the kernel at half the defining speed
    monkeypatch.setattr(reference.Reference, "seconds", lambda self: 2 * reference.KERNEL_S)
    result = measure(small_spec("cuts_random", tmp_path, trace=0, rounds=2))
    raw, scaled = result["raw"], result["metrics"]
    assert result["speed_factor"] == 2.0
    assert scaled["solve_p50_s"] == pytest.approx(raw["solve_p50_s"] / 2)
    assert scaled["solve_tail_s"] == pytest.approx(raw["solve_tail_s"] / 2)
    assert scaled["solves_per_s"] == pytest.approx(raw["solves_per_s"] * 2)


def test_speed_reference_shares_nothing_with_the_program():
    probe = "import sys, reference; reference.Reference().seconds(); " \
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'topocut'))"
    out = subprocess.run([sys.executable, "-c", probe], cwd=PERFBENCH, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    assert reference.speed_factor([reference.KERNEL_S] * 3) == 1.0


def test_phenylene_reference_graph_matches_the_program():
    cells = workloads.kinked_chain(9, workloads.random.Random(3))
    n, edges = workloads.phenylene_edges(cells)
    dd, gut = topocut.dd_gut_via_squeeze(cells)
    expected = workloads.oracle_indices(n, edges)
    assert (expected["degree_distance"], expected["gutman"]) == (str(dd), str(gut))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cuts_random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
