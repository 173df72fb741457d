"""Exact Wiener-type indices of graphs and phenylenes: W, DD and Gut, and
with --weights W*(a), W+(a) and W(a,b).

compute prints the indices by one method (auto picks it from the input);
--check holds them to the brute-force oracle, and verify runs every method
that applies against it.  classes, quotient and hamming inspect the
theta*-classes, reduce logs the R/S twin collapses, and generate prints a
family as an edge list or a placement.

Each command reads one input: a graph file ('u v' per line, optional first
line 'n m'), a generated --family with --n, or a benzenoid placement by
--cells ('q r' per line), which is solved as its phenylene.  --weights adds
vertex weights ('v a [b]' per line) to any of them.  verify --random N
draws N weighted random graphs instead.

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
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Sequence

from .cut_method import INDEX_TERMS, column_values, index_pairs
from .exact import weights_of
from .graph import Graph, GraphError, ParseError, PlacementError, format_edge_list, parse_edge_list
from .indices import check_positive, read_weights
from .solve import (
    LoadedInput, MethodNotApplicable, _json_default, _oracle_rows, _reduce, compute_report,
)
from .theta import PartitionError, format_classes, quotient, theta_star_classes

if TYPE_CHECKING:  # the phenylene and family modules load on first use
    from .phenylene import BenzenoidPlacement

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3
EXIT_MISMATCH = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="edge-list file (optional first line 'n m')")
    p.add_argument("--header", action=argparse.BooleanOptionalAction, help="read the graph "
                   "file's first line as 'n m' (or not); default: when m edge lines follow")
    p.add_argument("--family", help="generate the input: path, cycle, complete, "
                   "hypercube, complete_bipartite, random, star, windmill, house, chain, phe6")
    p.add_argument("--n", help="family size parameter (chain: hexagon count)")
    p.add_argument("--seed", type=int, default=0, help="seed for random family")
    p.add_argument("--kinks", help="chain kink pattern over {L, A+, A-}")
    p.add_argument("--cells", help="benzenoid placement file ('q r' per line)")
    p.add_argument("--weights", help="weights file ('v a [b]' per line)")


def _read_text(path: str) -> str:
    """The file at ``path`` as bytes decoded as UTF-8, line ends as written.  An
    unreadable file is a ``ParseError``, as is a decode error, named by line."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        return data.decode()
    except OSError as exc:  # a missing file, a directory, no permission
        raise ParseError(str(exc)) from None
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode() + "?").splitlines())
        raise ParseError(f"line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None


def _source(args) -> tuple[Graph | BenzenoidPlacement, str]:
    """The one input source of ``args``, a graph or a placement, and its descriptor."""
    if len([s for s in (args.graph, args.family, args.cells) if s]) != 1:
        raise UsageError("give exactly one of: a graph file, --family, or --cells")
    if args.cells:
        from .phenylene import parse_placement

        return parse_placement(_read_text(args.cells)), f"cells:{args.cells}"
    if args.graph:
        return parse_edge_list(_read_text(args.graph), args.header), args.graph
    from .families import complete_bipartite_graph, gen_basic, gen_phenylene_chain, phe6_placement

    fam = args.family.lower()
    if fam == "phe6":
        return phe6_placement(), "family:phe6"
    if fam == "chain":
        placement = gen_phenylene_chain(_int_arg(args.n, "chain"), args.kinks)
        return placement, f"family:chain(h={args.n}, kinks={args.kinks or 'linear'})"
    if fam == "complete_bipartite" and args.n and "," in args.n:
        sides = args.n.split(",")
        if len(sides) != 2:
            raise UsageError("--n must be 'p,q' or one integer for family 'complete_bipartite'")
        p, q = (_int_arg(x, fam) for x in sides)
        return complete_bipartite_graph(p, q), f"family:K_{p},{q}"
    return gen_basic(fam, _int_arg(args.n, fam), seed=args.seed), f"family:{fam}(n={args.n})"


def _load_input(args) -> LoadedInput:
    """The one input source of ``args``, with the ``--weights`` file attached
    whatever the source."""
    source, descriptor = _source(args)
    if not isinstance(source, Graph):
        from .phenylene import build_phenylene

        source = build_phenylene(source)
    loaded = LoadedInput(source, descriptor)
    if getattr(args, "weights", None):
        loaded.weights = read_weights(_read_text(args.weights), source.n)
        check_positive(loaded.weights)  # every method needs positive weights
    return loaded


def _int_arg(value, what) -> int:
    if value is None:
        raise UsageError(f"--n is required for family {what!r}")
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"--n must be an integer for family {what!r}") from None


def cmd_compute(args) -> int:
    start = time.perf_counter()  # timing_ms covers loading, detection and every index
    loaded = _load_input(args)
    report = compute_report(loaded, args.method)
    report.timing_ms = (time.perf_counter() - start) * 1000.0
    if args.check:
        mismatches = [line for line, agree in _oracle_rows(loaded, [report]) if not agree]
        if mismatches:
            print("\n".join(mismatches), file=sys.stderr)
            return EXIT_MISMATCH
    print(report.to_json() if args.json else report.to_text(), end="")
    return EXIT_OK


def _print(args, payload: dict[str, Any], text: str) -> int:
    """The inspection commands' one printer: ``payload`` as indented JSON
    under ``--json`` (Fractions as strings), else ``text``, which ends its
    own lines."""
    if args.json:
        text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    print(text, end="")
    return EXIT_OK


def cmd_classes(args) -> int:
    loaded = _load_input(args)
    g = loaded.graph
    classes = theta_star_classes(g)
    payload = [[list(g.edges[e]) for e in cls] for cls in classes.classes]
    return _print(args, {"input": loaded.descriptor, "classes": payload},
                  format_classes(g, classes))


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
    payload = {"input": loaded.descriptor, "n": q.graph.n, "m": q.graph.m,
               "edges": [list(e) for e in q.graph.edges], "members": [list(ms) for ms in q.members]}
    text = format_edge_list(q.graph) + "".join(
        f"# component {i}: {' '.join(map(str, ms))}\n" for i, ms in enumerate(q.members)
    )
    return _print(args, payload, text)


def cmd_verify(args) -> int:
    """Every applicable route against the oracle, on the input or on random graphs."""
    if args.random is not None:
        if args.random < 1:
            raise UsageError("--random must be at least 1")
        if args.max_n < 4:
            raise UsageError("--max-n must be at least 4")
    for loaded in _random_inputs(args) if args.random else [_load_input(args)]:
        rows = _oracle_rows(loaded)
        for line, agree in rows:
            if not (args.random and agree):
                print(line)
        if not all(agree for _, agree in rows):
            print(f"verification failed on {loaded.descriptor}", file=sys.stderr)
            if args.random:
                print(format_edge_list(loaded.graph), file=sys.stderr, end="")
            return EXIT_MISMATCH
    if args.random:
        print(f"verified {args.random} random graphs (max n {args.max_n}): all agree")
    return EXIT_OK


def _random_inputs(args):
    """``--random`` connected graphs with weights 1..9, smallest first."""
    from .families import random_connected_graph

    rng = random.Random(args.seed)
    cases = []
    for _ in range(args.random):
        n = rng.randint(4, args.max_n)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        cases.append((n, m, rng.randrange(10**9)))
    for n, m, seed in sorted(cases):  # smallest witness first
        a, b = (tuple(rng.randint(1, 9) for _ in range(n)) for _ in "ab")
        g = random_connected_graph(n, m, seed)
        yield LoadedInput(g, f"random graph n={n} m={m} seed={seed}", weights_of([a, b]))


def cmd_reduce(args) -> int:
    from .reduction import step_corrections

    loaded = _load_input(args)
    g = loaded.graph
    name = "wiener_double" if loaded.weights is not None else "degree_distance"
    (pair,) = index_pairs({name: INDEX_TERMS[name]})
    plan, (reduced_sum,), corrections, typed = _reduce(loaded, [pair])
    reduced = plan.graph
    reduced_value = loaded.matrix.divide(reduced_sum, *pair)
    typed = None if typed is None else typed[0]
    corrections = step_corrections(loaded.matrix, pair, corrections[0], typed)
    steps, total = plan.log(corrections), sum(corrections)
    running = accumulate(step.correction for step in steps)
    rows = [
        {"step": i, "kind": step.kind, "members": list(step.members),
         "representative": step.representative, "correction": step.correction,
         "running_total": total_so_far}
        for i, (step, total_so_far) in enumerate(zip(steps, running), start=1)
    ]
    payload = {"input": loaded.descriptor, "steps": rows, "reduced_n": reduced.n,
               "reduced_m": reduced.m, "reduced_wiener_double": reduced_value,
               "total_correction": total, "wiener_double": reduced_value + total}
    lines = [f"input: {loaded.descriptor}  (n={g.n}, m={g.m})"]
    lines += [
        f"step {r['step']}: {r['kind']}-class {{{','.join(map(str, r['members']))}}} -> "
        f"rep {r['representative']}, correction {r['correction']}, "
        f"running total {r['running_total']}"
        for r in rows
    ]
    lines.append(f"reduced graph: n={reduced.n}, m={reduced.m}")
    lines.append(f"W(a,b) = {reduced_value} + {total} = {reduced_value + total}")
    return _print(args, payload, "\n".join(lines) + "\n")


def cmd_generate(args) -> int:
    if not (args.family or args.cells):
        raise UsageError("generate needs --family or --cells")
    from .phenylene import build_phenylene, format_placement

    source, _ = _source(args)
    if not isinstance(source, Graph) and (args.cells or args.as_graph):
        source = build_phenylene(source).graph  # a placement file always prints as a graph
    text = format_edge_list(source) if isinstance(source, Graph) else format_placement(source)
    print(text, end="")
    return EXIT_OK


def cmd_hamming(args) -> int:
    loaded = _load_input(args)
    g, engine, matrix = loaded.graph, loaded.engine, loaded.matrix
    pairs = index_pairs({k: INDEX_TERMS[k] for k in ("wiener", "gutman")})
    bound, gut_bound = column_values(engine.block_matrix(matrix, pairs, closed=True), matrix, pairs)
    exact, gut_exact = column_values(engine.block_matrix(matrix, pairs), matrix, pairs)
    sizes = list(engine.sizes)
    payload = {"input": loaded.descriptor, "partial_hamming": engine.partial_hamming,
               "class_quotient_sizes": sizes, "wiener_bound": bound, "wiener": exact,
               "wiener_gap": exact - bound, "gutman_bound": gut_bound, "gutman": gut_exact,
               "gutman_gap": gut_exact - gut_bound}
    text = (
        f"input: {loaded.descriptor}  (n={g.n}, m={g.m})\n"
        f"partial Hamming: {'yes' if engine.partial_hamming else 'no'}\n"
        f"theta*-classes: {len(sizes)}, quotient sizes {sizes}\n"
        f"W  bound {bound}  exact {exact}  gap {exact - bound}\n"
        f"Gut bound {gut_bound}  exact {gut_exact}  gap {gut_exact - gut_bound}\n"
    )
    return _print(args, payload, text)


@functools.cache  # one parser per process: building it costs milliseconds
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topocut", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    commands = {}
    for name, func, help_text in (
        ("compute", cmd_compute, "compute the indices of a graph"),
        ("classes", cmd_classes, "print the theta*-classes"),
        ("quotient", cmd_quotient, "print the quotient by a class or edge set"),
        ("verify", cmd_verify, "every applicable route against the oracle"),
        ("reduce", cmd_reduce, "collapse R/S classes with a step log"),
        ("generate", cmd_generate, "emit a generated family"),
        ("hamming", cmd_hamming, "partial Hamming verdict, bound, and gap"),
    ):
        p = commands[name] = sub.add_parser(name, help=help_text)
        _add_input_args(p)
        p.set_defaults(func=func)
        if name not in ("verify", "generate"):
            p.add_argument("--json", action="store_true")
    p = commands["compute"]
    p.add_argument("--method", default="auto",
                   choices=["oracle", "cuts", "trees", "reduce", "hamming", "auto"])
    p.add_argument("--check", action="store_true", help="cross-check against the oracle")
    p = commands["quotient"]
    p.add_argument("--class-index", type=int, help="theta*-class index")
    p.add_argument("--edges", help="comma-separated edges 'u-v,u-v'")
    p = commands["verify"]
    p.add_argument("--random", type=int, help="verify N seeded random graphs instead")
    p.add_argument("--max-n", type=int, default=40)
    commands["generate"].add_argument("--as-graph", action="store_true", help="for chain/phe6: "
                                      "emit the phenylene edge list instead of the placement")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
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
