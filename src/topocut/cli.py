"""Command-line interface: compute, inspect, verify, generate, reduce.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 method not
applicable to the input, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .graph import Graph, GraphError, ParseError, degree_vector, format_edge_list, parse_edge_list
from .indices import (
    DoubleWeightedGraph,
    Weight,
    check_weights,
    degree_distance,
    gutman,
    parse_weights,
    wiener,
    wiener_double,
    wiener_plus,
    wiener_weighted,
)
from .theta import PartitionError, format_classes, quotient, theta_star_classes, trusted_partition
from .cut_method import CutEngine, Term, index_terms
from .phenylene import (
    BenzenoidPlacement,
    Phenylene,
    PlacementError,
    build_phenylene,
    parse_placement,
    quotient_trees,
    tree_wiener_double_linear,
    tree_wiener_linear,
)
from .reduction import collapse_plan, reduce_fully
from .families import gen_basic, gen_house, gen_phenylene_chain, phe6_placement

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3
EXIT_MISMATCH = 4


class UsageError(ValueError):
    pass


class MethodNotApplicable(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclass
class LoadedInput:
    graph: Graph
    descriptor: str
    placement: BenzenoidPlacement | None = None
    phenylene: Phenylene | None = None
    a: tuple[Weight, ...] | None = None
    b: tuple[Weight, ...] | None = None


@dataclass
class Report:
    input: str
    n: int
    m: int
    method: str
    indices: dict[str, Weight]
    breakdown: list[dict[str, Any]] = field(default_factory=list)
    timing_ms: float = 0.0

    def to_json(self) -> str:
        payload = {
            "input": self.input,
            "n": self.n,
            "m": self.m,
            "method": self.method,
            "indices": {k: _num(v) for k, v in self.indices.items()},
            "breakdown": [
                {k: _num(v) for k, v in row.items()} for row in self.breakdown
            ],
            "timing_ms": self.timing_ms,
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [
            f"input: {self.input}  (n={self.n}, m={self.m})",
            f"method: {self.method}",
        ]
        labels = {
            "wiener": "W",
            "degree_distance": "DD",
            "gutman": "Gut",
            "wiener_weighted": "W*(a)",
            "wiener_plus": "W+(a)",
            "wiener_double": "W(a,b)",
        }
        for key, value in self.indices.items():
            lines.append(f"  {labels.get(key, key):7s} = {value}")
        for row in self.breakdown:
            parts = " ".join(f"{k}={v}" for k, v in row.items())
            lines.append(f"    {parts}")
        lines.append(f"time: {self.timing_ms:.2f} ms")
        return "\n".join(lines) + "\n"


def _num(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="edge-list file (optional first line 'n m')")
    p.add_argument("--family", help="generate the input: path|cycle|complete|hypercube|"
                                    "complete_bipartite|random|star|windmill|house|chain|phe6")
    p.add_argument("--n", help="family size parameter (chain: hexagon count)")
    p.add_argument("--seed", type=int, default=0, help="seed for random family")
    p.add_argument("--kinks", help="chain kink pattern over {L, A+, A-}")
    p.add_argument("--cells", help="benzenoid placement file ('q r' per line)")
    p.add_argument("--weights", help="weights file ('v a [b]' per line)")


def _load_input(args) -> LoadedInput:
    sources = [s for s in (args.graph, args.family, args.cells) if s]
    if len(sources) != 1:
        raise UsageError("give exactly one of: a graph file, --family, or --cells")
    placement = None
    if args.cells:
        placement = parse_placement(Path(args.cells).read_text())
        descriptor = f"cells:{args.cells}"
    elif args.family:
        fam = args.family.lower()
        if fam == "phe6":
            placement = phe6_placement()
            descriptor = "family:phe6"
        elif fam == "chain":
            placement = gen_phenylene_chain(_int_arg(args.n, "chain"), args.kinks)
            descriptor = f"family:chain(h={args.n}, kinks={args.kinks or 'linear'})"
        elif fam == "house":
            g = gen_house(_int_arg(args.n, "house"))
            return LoadedInput(g, f"family:house(n={args.n})")
        elif fam == "complete_bipartite" and args.n and "," in args.n:
            from .families import complete_bipartite_graph

            p, q = (int(x) for x in args.n.split(","))
            return LoadedInput(complete_bipartite_graph(p, q), f"family:K_{p},{q}")
        else:
            g = gen_basic(fam, _int_arg(args.n, fam), seed=args.seed)
            return LoadedInput(g, f"family:{fam}(n={args.n})")
    else:
        text = Path(args.graph).read_text()
        return _attach_weights(LoadedInput(parse_edge_list(text), args.graph), args)
    ph = build_phenylene(placement)
    return _attach_weights(
        LoadedInput(ph.graph, descriptor, placement=placement, phenylene=ph), args
    )


def _attach_weights(loaded: LoadedInput, args) -> LoadedInput:
    if getattr(args, "weights", None):
        a, b = parse_weights(Path(args.weights).read_text(), loaded.graph.n)
        check_weights(loaded.graph, a)  # every method needs positive weights
        check_weights(loaded.graph, b)
        loaded.a, loaded.b = a, b
    return loaded


def _int_arg(value, what) -> int:
    if value is None:
        raise UsageError(f"--n is required for family {what!r}")
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"--n must be an integer for family {what!r}") from None


# Indices the closed-form route reports; cuts report every index.
HAMMING_INDICES = ("wiener", "degree_distance", "gutman", "wiener_weighted")


def _compute_report(loaded: LoadedInput, method: str) -> Report:
    g = loaded.graph
    if method == "auto" and loaded.phenylene is not None:
        method = "trees"
    indices: dict[str, Weight] = {}
    breakdown: list[dict[str, Any]] = []
    if g.n == 1 and method == "reduce":  # zero degrees are no weights; every sum is empty
        indices = {"wiener": 0, "degree_distance": 0, "gutman": 0}
        if loaded.a is not None:
            indices.update(wiener_weighted=0, wiener_plus=0, wiener_double=0)
        return Report(loaded.descriptor, 1, 0, method, indices, [])

    if method == "oracle":
        indices["wiener"] = wiener(g)
        indices["degree_distance"] = degree_distance(g)
        indices["gutman"] = gutman(g)
        if loaded.a is not None:
            indices["wiener_weighted"] = wiener_weighted(g, loaded.a)
            indices["wiener_plus"] = wiener_plus(g, loaded.a)
            indices["wiener_double"] = wiener_double(
                DoubleWeightedGraph(g, loaded.a, loaded.b)
            )
    elif method in ("auto", "cuts", "hamming"):
        # One theta* run and one quotient per class serve detection and
        # every index; hamming is cuts restricted to partial Hamming graphs.
        engine = CutEngine(g)
        if method == "auto":
            method = "hamming" if engine.partial_hamming else "cuts"
        elif method == "hamming" and not engine.partial_hamming:
            raise MethodNotApplicable(
                "method 'hamming' needs a partial Hamming graph; detection failed "
                "(some theta*-class quotient is not complete)"
            )
        terms = index_terms(g, loaded.a, loaded.b)
        if method == "hamming":
            terms = {k: t for k, t in terms.items() if k in HAMMING_INDICES}
        blocks = engine.block_values(list(terms.values()))
        indices = {name: sum(row[k] for row in blocks) for k, name in enumerate(terms)}
        for i, (edges, row) in enumerate(zip(engine.partition.blocks, blocks)):
            breakdown.append(
                {"block": i, "edges": len(edges), "W": row[0], "DD": row[1], "Gut": row[2]}
            )
    elif method == "trees":
        if loaded.phenylene is None:
            raise MethodNotApplicable(
                "method 'trees' needs a phenylene input (--cells or --family chain/phe6); "
                "edge lists carry no hexagon structure"
            )
        trees = quotient_trees(loaded.phenylene)
        dd_vals = [tree_wiener_double_linear(t.tree, t.a, t.b) for t in trees]
        gut_vals = [tree_wiener_linear(t.tree, t.a) for t in trees]
        w_vals = [tree_wiener_linear(t.tree, t.b) for t in trees]
        indices["wiener"] = sum(w_vals)
        indices["degree_distance"] = sum(dd_vals)
        indices["gutman"] = sum(gut_vals)
        for i, t in enumerate(trees, start=1):
            breakdown.append(
                {
                    "tree": i,
                    "vertices": t.tree.n,
                    "W_double": dd_vals[i - 1],
                    "W_single": gut_vals[i - 1],
                }
            )
    elif method == "reduce":
        # One collapse plan serves every weight pair; the reduced pairs share
        # one distance matrix of the reduced graph.  DD's step log is the
        # breakdown.
        plan = collapse_plan(g)
        terms = index_terms(g, loaded.a, loaded.b)
        dd, _, steps = reduce_fully(DoubleWeightedGraph(g, *terms["degree_distance"]), plan)
        reduced = [
            (dd.a, dd.b, [s.correction for s in steps]) if name == "degree_distance"
            else plan.apply(a, b)
            for name, (a, b) in terms.items()
        ]
        values = _reduced_values(plan.graph, [(a, b) for a, b, _ in reduced])
        for name, value, (_, _, corrections) in zip(terms, values, reduced):
            indices[name] = value + sum(corrections)
        for step in steps:
            breakdown.append(
                {
                    "kind": step.kind,
                    "class_size": len(step.members),
                    "representative": step.representative,
                    "correction": step.correction,
                }
            )
    else:
        raise UsageError(f"unknown method {method!r}")
    return Report(loaded.descriptor, g.n, g.m, method, indices, breakdown)


def _reduced_values(g: Graph, terms: list[Term]) -> list[Weight]:
    """Every term on a reduced graph: a cut engine over one block of all
    edges, i.e. one distance matrix under the engine's exactness guard.

    As in the oracle's sums, a term with a Fraction weight is a Fraction
    even when integral (summed p/q weights can be whole numbers).
    """
    if g.n == 1:
        return [0] * len(terms)
    values = CutEngine(g, trusted_partition(g, [range(g.m)])).values(terms)
    return [
        Fraction(v) if any(isinstance(x, Fraction) for w in term if w is not None for x in w)
        else v
        for v, term in zip(values, terms)
    ]


def _oracle_indices(loaded: LoadedInput) -> dict[str, Weight]:
    g = loaded.graph
    out: dict[str, Weight] = {
        "wiener": wiener(g),
        "degree_distance": degree_distance(g),
        "gutman": gutman(g),
    }
    if loaded.a is not None:
        out["wiener_weighted"] = wiener_weighted(g, loaded.a)
        out["wiener_plus"] = wiener_plus(g, loaded.a)
        out["wiener_double"] = wiener_double(DoubleWeightedGraph(g, loaded.a, loaded.b))
    return out


def cmd_compute(args) -> int:
    start = time.perf_counter()  # timing_ms covers loading, detection and every index
    loaded = _load_input(args)
    report = _compute_report(loaded, args.method)
    report.timing_ms = (time.perf_counter() - start) * 1000.0
    if args.check:
        oracle = _oracle_indices(loaded)
        for key, value in report.indices.items():
            if key in oracle and oracle[key] != value:
                print(
                    f"MISMATCH: {key} {value} (method {report.method}) "
                    f"!= {oracle[key]} (oracle)",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
    print(report.to_json() if args.json else report.to_text(), end="")
    return EXIT_OK


def cmd_classes(args) -> int:
    loaded = _load_input(args)
    classes = theta_star_classes(loaded.graph)
    if args.json:
        payload = [
            [list(loaded.graph.edges[e]) for e in cls] for cls in classes.classes
        ]
        print(json.dumps({"input": loaded.descriptor, "classes": payload}, indent=2))
    else:
        print(format_classes(loaded.graph, classes), end="")
    return EXIT_OK


def _parse_edge_spec(g: Graph, spec: str) -> list[int]:
    out = []
    for token in spec.split(","):
        token = token.strip()
        try:
            u, v = (int(x) for x in token.split("-"))
        except ValueError:
            raise UsageError(f"bad edge spec {token!r}, expected 'u-v'") from None
        out.append(g.index_of_edge(u, v))
    return out


def cmd_quotient(args) -> int:
    loaded = _load_input(args)
    g = loaded.graph
    if (args.class_index is None) == (args.edges is None):
        raise UsageError("give exactly one of --class-index or --edges")
    if args.class_index is not None:
        classes = theta_star_classes(g)
        if not (0 <= args.class_index < len(classes.classes)):
            raise UsageError(
                f"class index {args.class_index} out of range "
                f"(graph has {len(classes.classes)} theta*-classes)"
            )
        block = list(classes.classes[args.class_index])
    else:
        block = _parse_edge_spec(g, args.edges)
    q = quotient(g, block)
    if args.json:
        payload = {
            "input": loaded.descriptor,
            "n": q.graph.n,
            "m": q.graph.m,
            "edges": [list(e) for e in q.graph.edges],
            "members": [list(ms) for ms in q.members],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_edge_list(q.graph), end="")
        for i, ms in enumerate(q.members):
            print(f"# component {i}: {' '.join(map(str, ms))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.random:
        return _verify_random(args)
    loaded = _load_input(args)
    return _verify_one(loaded, args)


def _verify_one(loaded: LoadedInput, args) -> int:
    g = loaded.graph
    if g.n == 1:
        print("trivial graph: all indices 0 [ok]")
        return EXIT_OK
    oracle = _oracle_indices(loaded)
    terms = index_terms(g)
    blocks = CutEngine(g).block_values([terms["degree_distance"], terms["gutman"]])
    dd_blocks = [dd for dd, _ in blocks]
    gut_blocks = [gut for _, gut in blocks]
    rows = [
        ("degree_distance", oracle["degree_distance"], sum(dd_blocks), dd_blocks),
        ("gutman", oracle["gutman"], sum(gut_blocks), gut_blocks),
    ]
    if loaded.phenylene is not None:
        trees = quotient_trees(loaded.phenylene)
        dd_t = [tree_wiener_double_linear(t.tree, t.a, t.b) for t in trees]
        gut_t = [tree_wiener_linear(t.tree, t.a) for t in trees]
        rows.append(("degree_distance(trees)", oracle["degree_distance"], sum(dd_t), dd_t))
        rows.append(("gutman(trees)", oracle["gutman"], sum(gut_t), gut_t))
    ok = True
    for name, want, got, blocks in rows:
        status = "ok" if want == got else "MISMATCH"
        ok = ok and want == got
        print(f"{name}: oracle={want} cut={got} [{status}]")
        print(f"  per-block: {' '.join(str(b) for b in blocks)}")
    if not ok:
        print(f"verification failed on {loaded.descriptor}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _verify_random(args) -> int:
    rng = random.Random(args.seed)
    from .families import random_connected_graph

    cases = []
    for i in range(args.random):
        n = rng.randint(4, args.max_n)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        cases.append((n, m, rng.randrange(10**9)))
    cases.sort()  # smallest witness first
    for n, m, seed in cases:
        g = random_connected_graph(n, m, seed)
        a = tuple(rng.randint(1, 9) for _ in range(n))
        b = tuple(rng.randint(1, 9) for _ in range(n))
        want = wiener_double(DoubleWeightedGraph(g, a, b))
        dd_want = degree_distance(g)
        got, dd_got = CutEngine(g).values([(a, b), index_terms(g)["degree_distance"]])
        if want != got or dd_want != dd_got:
            print(
                f"MISMATCH on n={n} m={m} seed={seed}: "
                f"W(a,b) oracle={want} cut={got}; DD oracle={dd_want} cut={dd_got}",
                file=sys.stderr,
            )
            print(format_edge_list(g), file=sys.stderr, end="")
            return EXIT_MISMATCH
    print(f"verified {args.random} random graphs (max n {args.max_n}): all agree")
    return EXIT_OK


def cmd_reduce(args) -> int:
    loaded = _load_input(args)
    g = loaded.graph
    a = loaded.a if loaded.a is not None else degree_vector(g)
    b = loaded.b if loaded.b is not None else (1,) * g.n
    dwg, total, steps = reduce_fully(DoubleWeightedGraph(g, a, b))
    running: Weight = 0
    rows = []
    for i, step in enumerate(steps, start=1):
        running += step.correction
        rows.append(
            {
                "step": i,
                "kind": step.kind,
                "members": list(step.members),
                "representative": step.representative,
                "correction": step.correction,
                "running_total": running,
            }
        )
    (reduced_value,) = _reduced_values(dwg.g, [(dwg.a, dwg.b)])
    if args.json:
        payload = {
            "input": loaded.descriptor,
            "steps": [{k: _num_deep(v) for k, v in r.items()} for r in rows],
            "reduced_n": dwg.g.n,
            "reduced_m": dwg.g.m,
            "reduced_wiener_double": _num(reduced_value),
            "total_correction": _num(total),
            "wiener_double": _num(reduced_value + total),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"input: {loaded.descriptor}  (n={g.n}, m={g.m})")
        for r in rows:
            members = ",".join(map(str, r["members"]))
            print(
                f"step {r['step']}: {r['kind']}-class {{{members}}} -> "
                f"rep {r['representative']}, correction {r['correction']}, "
                f"running total {r['running_total']}"
            )
        print(f"reduced graph: n={dwg.g.n}, m={dwg.g.m}")
        print(f"W(a,b) = {reduced_value} + {total} = {reduced_value + total}")
    return EXIT_OK


def _num_deep(v):
    if isinstance(v, list):
        return [_num_deep(x) for x in v]
    return _num(v)


def cmd_generate(args) -> int:
    if args.cells:
        placement = parse_placement(Path(args.cells).read_text())
        print(format_edge_list(build_phenylene(placement).graph), end="")
        return EXIT_OK
    if not args.family:
        raise UsageError("generate needs --family or --cells")
    fam = args.family.lower()
    if fam in ("chain", "phe6"):
        placement = (
            phe6_placement()
            if fam == "phe6"
            else gen_phenylene_chain(_int_arg(args.n, "chain"), args.kinks)
        )
        if args.as_graph:
            print(format_edge_list(build_phenylene(placement).graph), end="")
        else:
            from .phenylene import format_placement

            print(format_placement(placement), end="")
        return EXIT_OK
    if fam == "house":
        g = gen_house(_int_arg(args.n, "house"))
    elif fam == "complete_bipartite" and args.n and "," in args.n:
        from .families import complete_bipartite_graph

        p, q = (int(x) for x in args.n.split(","))
        g = complete_bipartite_graph(p, q)
    else:
        g = gen_basic(fam, _int_arg(args.n, fam), seed=args.seed)
    print(format_edge_list(g), end="")
    return EXIT_OK


def cmd_hamming(args) -> int:
    loaded = _load_input(args)
    g = loaded.graph
    engine = CutEngine(g)
    verdict = engine.partial_hamming
    terms = index_terms(g)
    wanted = [terms["wiener"], terms["gutman"]]
    bound, gut_bound = engine.values(wanted, closed=True)
    exact, gut_exact = engine.values(wanted)
    sizes = [q.graph.n for q in engine.quotients]
    if args.json:
        payload = {
            "input": loaded.descriptor,
            "partial_hamming": verdict,
            "class_quotient_sizes": sizes,
            "wiener_bound": _num(bound),
            "wiener": _num(exact),
            "wiener_gap": _num(exact - bound),
            "gutman_bound": _num(gut_bound),
            "gutman": _num(gut_exact),
            "gutman_gap": _num(gut_exact - gut_bound),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"input: {loaded.descriptor}  (n={g.n}, m={g.m})")
        print(f"partial Hamming: {'yes' if verdict else 'no'}")
        print(f"theta*-classes: {len(sizes)}, quotient sizes {sizes}")
        print(f"W  bound {bound}  exact {exact}  gap {exact - bound}")
        print(f"Gut bound {gut_bound}  exact {gut_exact}  gap {gut_exact - gut_bound}")
    return EXIT_OK


@functools.cache  # one parser per process: building it costs milliseconds
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topocut", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compute", help="compute the indices of a graph")
    _add_input_args(p)
    p.add_argument(
        "--method",
        default="auto",
        choices=["oracle", "cuts", "trees", "reduce", "hamming", "auto"],
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--check", action="store_true", help="cross-check against the oracle")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("classes", help="print the theta*-classes")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("quotient", help="print the quotient by a class or edge set")
    _add_input_args(p)
    p.add_argument("--class-index", type=int, help="theta*-class index")
    p.add_argument("--edges", help="comma-separated edges 'u-v,u-v'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify", help="oracle vs cut-method comparison")
    _add_input_args(p)
    p.add_argument("--random", type=int, help="verify N seeded random graphs instead")
    p.add_argument("--max-n", type=int, default=40)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="collapse R/S classes with a step log")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("generate", help="emit a generated family")
    _add_input_args(p)
    p.add_argument(
        "--as-graph",
        action="store_true",
        help="for chain/phe6: emit the phenylene edge list instead of the placement",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("hamming", help="partial Hamming verdict, bound, and gap")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hamming)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MethodNotApplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (GraphError, PartitionError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
