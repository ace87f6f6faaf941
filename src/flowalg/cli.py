"""Command-line front end.

Graphs are read from plain text files: ``vertex <id>`` and
``edge <id> <tail> <head>`` lines, comments starting with ``#``.  Edge line
order fixes the reference orientation and every deterministic tie-break.
Reports are JSON documents with a fixed field order; rationals are printed
exactly as ``p/q`` strings and no floating point appears anywhere.

All commands share one report path.  A ``_cmd_*`` function takes the parsed
arguments and returns ``(results, report)``: its results, and the
``CheckReport`` of the checks it ran, or None if it runs none.  ``main``
alone builds the document (``command``, ``inputs`` with the SHA-256 of each
graph file the subcommand declares, ``results``, ``checks`` when there is a
report, ``elapsed_ms``) and picks the exit code.

A ``_cmd_*`` function imports the library modules it runs when it is
called, so a fresh process loads (and, without a bytecode cache, compiles)
only those: ``poincare`` never loads the lattice, relation or circulation
code.  ``elapsed_ms`` therefore includes the command's own imports.

Exit codes: 0 success; 1 a non-exploratory check in the report failed, or a
``CheckError`` was raised; 2 input error; 3 capacity error.  Exploratory
failures never change the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (CapacityError, CheckError, FlowAlgError, InputError,
                     require_capacity)
from .graph import Graph
from .report import CheckReport

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY = 3

DEFAULT_MAX_NORM = 12
DEFAULT_CORPUS_EDGES = 7


def parse_graph(path: str) -> Graph:
    """Read a graph file; malformed lines are reported with their number."""
    vertices: list[int] = []
    vset: set[int] = set()
    edges: list[tuple[int, int, int]] = []
    eids: set[int] = set()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            try:
                vid = int(parts[1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad vertex id") from None
            if vid < 0:
                raise InputError(f"{path}:{lineno}: vertex id must be unsigned")
            if vid not in vset:
                vset.add(vid)
                vertices.append(vid)
        elif parts[0] == "edge" and len(parts) == 4:
            try:
                eid, tail, head = (int(parts[1]), int(parts[2]), int(parts[3]))
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad edge line") from None
            if eid < 0:
                raise InputError(f"{path}:{lineno}: edge id must be unsigned")
            if eid in eids:
                raise InputError(f"{path}:{lineno}: duplicate edge id {eid}")
            if tail not in vset or head not in vset:
                raise InputError(
                    f"{path}:{lineno}: edge {eid} references an undeclared vertex")
            eids.add(eid)
            edges.append((eid, tail, head))
        else:
            raise InputError(f"{path}:{lineno}: unrecognized line {line!r}")
    return Graph(tuple(sorted(vertices)), tuple(edges))


# -- serialization helpers ---------------------------------------------------


def _frac(x) -> str:
    from fractions import Fraction
    return str(Fraction(x))


def _series(series) -> list:
    return [[_frac(e), c] for e, c in series.terms]


def _digest(path: str) -> str:
    import hashlib  # loads OpenSSL: only commands that read a file pay it
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        h.update(handle.read())
    return h.hexdigest()


# -- command implementations -------------------------------------------------


def _cmd_tutte(args):
    from .tutte import tutte
    t = tutte(parse_graph(args.file))
    return {
        "tutte": [[i, j, c] for (i, j), c in t.sorted_items()],
        "t_1_1": int(t(1, 1)),
        "t_1_2": int(t(1, 2)),
    }, None


def _cmd_poincare(args):
    from .tutte import poincare
    return {"poincare": poincare(parse_graph(args.file))}, None


def _cmd_ranks(args):
    from .circulation import monomial_dimensions
    from .relations import rank_sequence
    from .tutte import poincare, trimmed
    g = parse_graph(args.file)
    if args.oracle != "tutte":  # refused before the Tutte route runs
        require_capacity(g.num_edges)
    routes = {"tutte": poincare, "relations": rank_sequence,
              "monomials": monomial_dimensions}
    results = {name: list(trimmed(route(g)))
               for name, route in routes.items()
               if args.oracle in (name, "all")}
    if args.oracle != "all":
        return results, None
    report = CheckReport()
    report.add("oracle-agreement",
               len({tuple(seq) for seq in results.values()}) == 1)
    return results, report


def _cmd_lattice(args):
    from math import prod
    from .lattice import coset_system, lattice
    from .tutte import complexity
    g = parse_graph(args.file)
    lat = lattice(g)
    system = coset_system(g)
    return {
        "chords": list(lat.chords),
        "basis": [list(b) for b in lat.basis],
        "gram": [list(row) for row in lat.gram],
        "determinant": lat.determinant,
        "forest-count": complexity(g),
        "indices": list(system.indices),
        "weights": list(system.weights),
        "coset-size": prod(system.indices),
    }, None


def _cmd_char_flow(args):
    from fractions import Fraction
    from .lattice import characteristic_flow
    from .tutte import complexity
    g = parse_graph(args.file)
    direction = -1 if args.reverse else 1
    flow = characteristic_flow(g, args.edge, direction)
    kappa = complexity(g)
    kappa_del = complexity(g.delete([args.edge]))
    results = {
        "edge": args.edge,
        "direction": direction,
        "chi": [_frac(x) for x in flow.chi],
        "norm": _frac(flow.norm),
        "potential": {str(v): _frac(p) for v, p in sorted(flow.potential.items())},
        "complexity-ratio": f"{kappa}/{kappa_del}",
    }
    report = CheckReport()
    report.add("norm-identity", flow.norm == Fraction(kappa, kappa_del))
    return results, report


def _cmd_theta(args):
    from .lattice import theta_enumerate, theta_product
    g = parse_graph(args.file)
    results = {"max-norm": args.max_norm}
    if args.method in ("product", "both"):
        results["product"] = _series(theta_product(g, args.max_norm))
    if args.method in ("enumerate", "both"):
        results["enumerate"] = _series(theta_enumerate(g, args.max_norm))
    if args.method != "both":
        return results, None
    report = CheckReport()
    report.add("theta-routes-agree",
               results["product"] == results["enumerate"])
    return results, report


def _cmd_flows_of_norm(args):
    from .lattice import flows_of_norm
    g = parse_graph(args.file)
    return {"norm": args.norm, "count": flows_of_norm(g, args.norm)}, None


def _cmd_compare(args):
    from .lattice import codichromatic_compare
    rep = codichromatic_compare(parse_graph(args.file1),
                                parse_graph(args.file2), args.max_norm)
    first = rep["theta_first_difference"]
    return {
        "tutte-equal": rep["tutte_equal"],
        "theta-first-difference": _frac(first) if first is not None else None,
        "theta-left": _series(rep["theta_left"]),
        "theta-right": _series(rep["theta_right"]),
    }, None


def _cmd_torsion(args):
    from .relations import product_torsion
    g = parse_graph(args.file)
    try:
        i_str, j_str = args.degrees.split(",")
        i, j = int(i_str), int(j_str)
    except ValueError:
        raise InputError("--degrees expects two integers like 1,2") from None
    factors = product_torsion(g, i, j)
    group = " x ".join(f"Z/{f}" for f in factors) if factors else "trivial"
    return {"degrees": [i, j], "invariant-factors": list(factors),
            "group": group}, None


def _cmd_verify(args):
    from .verify import verify_graph
    g = parse_graph(args.file)
    report = verify_graph(g, theta_bound=args.max_norm,
                          trials=args.trials, deep=args.all)
    return {"graph-edges": g.num_edges,
            "graph-vertices": g.num_vertices}, report


def _cmd_corpus(args):
    from .verify import run_corpus
    results = run_corpus(args.max_edges, theta_bound=args.max_norm,
                         trials=args.trials, deep=args.all)
    report = CheckReport()
    report.add("corpus", not results["failures"])
    return results, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowalg",
        description="Exact flow-lattice and circulation-algebra invariants "
                    "of multigraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, files=("file",)):
        """A subcommand with its positional graph files, which ``main``
        lists as the report's inputs."""
        p = sub.add_parser(name, help=summary)
        for f in files:
            p.add_argument(f)
        p.set_defaults(func=func, files=files)
        return p

    def max_norm(p):
        p.add_argument("--max-norm", type=int, default=DEFAULT_MAX_NORM)

    command("tutte", _cmd_tutte, "Tutte polynomial")
    command("poincare", _cmd_poincare, "graded rank generating polynomial")

    p = command("ranks", _cmd_ranks, "rank sequence via one or all oracles")
    p.add_argument("--oracle", choices=["tutte", "relations", "monomials", "all"],
                   default="all")

    command("lattice", _cmd_lattice, "integer flow lattice data")

    p = command("char-flow", _cmd_char_flow, "characteristic flow of an edge")
    p.add_argument("--edge", type=int, required=True)
    p.add_argument("--reverse", action="store_true")

    p = command("theta", _cmd_theta, "theta series of the flow lattice")
    max_norm(p)
    p.add_argument("--method", choices=["product", "enumerate", "both"],
                   default="both")

    p = command("flows-of-norm", _cmd_flows_of_norm,
                "count flows of one squared norm")
    p.add_argument("--norm", type=int, required=True)

    p = command("compare", _cmd_compare,
                "codichromatic comparison of two graphs", ("file1", "file2"))
    max_norm(p)

    p = command("torsion", _cmd_torsion, "product-quotient invariant factors")
    p.add_argument("--degrees", required=True, metavar="i,j")

    p = command("verify", _cmd_verify, "identity and inequality suite")
    p.add_argument("--all", action="store_true",
                   help="include the expensive structural checks")
    max_norm(p)
    p.add_argument("--trials", type=int, default=0,
                   help="orientation-invariance trials")

    p = command("corpus", _cmd_corpus,
                "verify all small connected multigraphs", ())
    p.add_argument("--max-edges", type=int, default=DEFAULT_CORPUS_EDGES)
    max_norm(p)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--all", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one command, print its JSON document and return the exit code."""
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        results, report = args.func(args)
    except CapacityError as exc:
        print(json.dumps({"error": str(exc), "kind": "capacity"}, indent=2))
        return EXIT_CAPACITY
    except FlowAlgError as exc:
        kind = "check" if isinstance(exc, CheckError) else "input"
        print(json.dumps({"error": str(exc), "kind": kind}, indent=2))
        return EXIT_CHECK_FAILURE if kind == "check" else EXIT_INPUT_ERROR
    paths = [getattr(args, f) for f in args.files]
    doc = {
        "command": args.command,
        "inputs": [{"path": p, "sha256": _digest(p)} for p in paths],
        "results": results,
    }
    if report is not None:
        doc["checks"] = report.as_dicts()
    doc["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    print(json.dumps(doc, indent=2))
    if report is not None and not report.passed:
        return EXIT_CHECK_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
