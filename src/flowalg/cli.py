"""Command-line front end.

Graphs are read from plain text files: ``vertex <id>`` and
``edge <id> <tail> <head>`` lines, comments starting with ``#``.  Edge line
order fixes the reference orientation and every deterministic tie-break.
Reports are JSON documents with a fixed field order; rationals are printed
exactly as ``p/q`` strings and no floating point appears anywhere.

Exit codes: 0 success, 1 check failure, 2 input error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from math import prod

from .errors import CapacityError, CheckError, FlowAlgError, InputError
from .graph import Graph
from .lattice import (characteristic_flow, codichromatic_compare,
                      coset_system, flows_of_norm, lattice, theta_enumerate,
                      theta_product)
from .circulation import monomial_dimensions
from .relations import product_torsion, rank_sequence
from .tutte import complexity, poincare, tutte
from .verify import run_corpus, trimmed, verify_graph

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
    except OSError as exc:
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
    return str(Fraction(x))


def _series(series) -> list:
    return [[_frac(e), c] for e, c in series.terms]


def _bipoly(p) -> list:
    return [[i, j, c] for (i, j), c in p.sorted_items()]


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        h.update(handle.read())
    return h.hexdigest()


def _document(command: str, paths: list[str], results: dict,
              checks: list | None, started: float) -> dict:
    doc = {
        "command": command,
        "inputs": [{"path": p, "sha256": _digest(p)} for p in paths],
        "results": results,
    }
    if checks is not None:
        doc["checks"] = checks
    doc["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return doc


# -- command implementations -------------------------------------------------


def _cmd_tutte(args, started):
    g = parse_graph(args.file)
    t = tutte(g)
    results = {
        "tutte": _bipoly(t),
        "t_1_1": int(t(1, 1)),
        "t_1_2": int(t(1, 2)),
    }
    return _document("tutte", [args.file], results, None, started), EXIT_OK


def _cmd_poincare(args, started):
    g = parse_graph(args.file)
    results = {"poincare": poincare(g)}
    return _document("poincare", [args.file], results, None, started), EXIT_OK


def _cmd_ranks(args, started):
    g = parse_graph(args.file)
    results = {}
    sequences = {}
    if args.oracle in ("tutte", "all"):
        sequences["tutte"] = trimmed(poincare(g))
    if args.oracle in ("relations", "all"):
        sequences["relations"] = trimmed(rank_sequence(g))
    if args.oracle in ("monomials", "all"):
        sequences["monomials"] = trimmed(monomial_dimensions(g))
    for name, seq in sequences.items():
        results[name] = list(seq)
    checks = None
    code = EXIT_OK
    if args.oracle == "all":
        agree = len(set(sequences.values())) == 1
        checks = [{"check": "oracle-agreement",
                   "status": "pass" if agree else "fail"}]
        if not agree:
            code = EXIT_CHECK_FAILURE
    return _document("ranks", [args.file], results, checks, started), code


def _cmd_lattice(args, started):
    g = parse_graph(args.file)
    lat = lattice(g)
    system = coset_system(g)
    results = {
        "chords": list(lat.chords),
        "basis": [list(b) for b in lat.basis],
        "gram": [list(row) for row in lat.gram],
        "determinant": lat.determinant,
        "forest-count": complexity(g),
        "indices": list(system.indices),
        "weights": list(system.weights),
        "coset-size": prod(system.indices),
    }
    return _document("lattice", [args.file], results, None, started), EXIT_OK


def _cmd_char_flow(args, started):
    g = parse_graph(args.file)
    direction = -1 if args.reverse else 1
    flow = characteristic_flow(g, args.edge, direction)
    kappa = complexity(g)
    kappa_del = complexity(g.delete([args.edge]))
    norm_ok = flow.norm == Fraction(kappa, kappa_del)
    results = {
        "edge": args.edge,
        "direction": direction,
        "chi": [_frac(x) for x in flow.chi],
        "norm": _frac(flow.norm),
        "potential": {str(v): _frac(p) for v, p in sorted(flow.potential.items())},
        "complexity-ratio": f"{kappa}/{kappa_del}",
    }
    checks = [{"check": "norm-identity", "status": "pass" if norm_ok else "fail"}]
    code = EXIT_OK if norm_ok else EXIT_CHECK_FAILURE
    return _document("char-flow", [args.file], results, checks, started), code


def _cmd_theta(args, started):
    g = parse_graph(args.file)
    results = {"max-norm": args.max_norm}
    checks = None
    code = EXIT_OK
    if args.method in ("product", "both"):
        results["product"] = _series(theta_product(g, args.max_norm))
    if args.method in ("enumerate", "both"):
        results["enumerate"] = _series(theta_enumerate(g, args.max_norm))
    if args.method == "both":
        agree = results["product"] == results["enumerate"]
        checks = [{"check": "theta-routes-agree",
                   "status": "pass" if agree else "fail"}]
        if not agree:
            code = EXIT_CHECK_FAILURE
    return _document("theta", [args.file], results, checks, started), code


def _cmd_flows_of_norm(args, started):
    g = parse_graph(args.file)
    results = {"norm": args.norm, "count": flows_of_norm(g, args.norm)}
    return _document("flows-of-norm", [args.file], results, None, started), EXIT_OK


def _cmd_compare(args, started):
    g1 = parse_graph(args.file1)
    g2 = parse_graph(args.file2)
    rep = codichromatic_compare(g1, g2, args.max_norm)
    first = rep["theta_first_difference"]
    results = {
        "tutte-equal": rep["tutte_equal"],
        "theta-first-difference": _frac(first) if first is not None else None,
        "theta-left": _series(rep["theta_left"]),
        "theta-right": _series(rep["theta_right"]),
    }
    return (_document("compare", [args.file1, args.file2], results, None,
                      started), EXIT_OK)


def _cmd_torsion(args, started):
    g = parse_graph(args.file)
    try:
        i_str, j_str = args.degrees.split(",")
        i, j = int(i_str), int(j_str)
    except ValueError:
        raise InputError("--degrees expects two integers like 1,2") from None
    factors = product_torsion(g, i, j)
    group = " x ".join(f"Z/{f}" for f in factors) if factors else "trivial"
    results = {"degrees": [i, j], "invariant-factors": list(factors),
               "group": group}
    return _document("torsion", [args.file], results, None, started), EXIT_OK


def _cmd_verify(args, started):
    g = parse_graph(args.file)
    report = verify_graph(g, theta_bound=args.max_norm,
                          trials=args.trials, deep=args.all)
    results = {"graph-edges": g.num_edges, "graph-vertices": g.num_vertices}
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILURE
    return (_document("verify", [args.file], results, report.as_dicts(),
                      started), code)


def _cmd_corpus(args, started):
    summary = run_corpus(args.max_edges, theta_bound=args.max_norm,
                         trials=args.trials, deep=args.all)
    results = {
        "graphs": summary["graphs"],
        "max-edges": summary["max_edges"],
        "checks-run": summary["checks_run"],
        "failures": summary["failures"],
        "exploratory-failures": summary["exploratory_failures"],
    }
    checks = [{"check": "corpus",
               "status": "pass" if summary["passed"] else "fail"}]
    code = EXIT_OK if summary["passed"] else EXIT_CHECK_FAILURE
    return _document("corpus", [], results, checks, started), code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowalg",
        description="Exact flow-lattice and circulation-algebra invariants "
                    "of multigraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tutte", help="Tutte polynomial")
    p.add_argument("file")
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("poincare", help="graded rank generating polynomial")
    p.add_argument("file")
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("ranks", help="rank sequence via one or all oracles")
    p.add_argument("file")
    p.add_argument("--oracle", choices=["tutte", "relations", "monomials", "all"],
                   default="all")
    p.set_defaults(func=_cmd_ranks)

    p = sub.add_parser("lattice", help="integer flow lattice data")
    p.add_argument("file")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("char-flow", help="characteristic flow of an edge")
    p.add_argument("file")
    p.add_argument("--edge", type=int, required=True)
    p.add_argument("--reverse", action="store_true")
    p.set_defaults(func=_cmd_char_flow)

    p = sub.add_parser("theta", help="theta series of the flow lattice")
    p.add_argument("file")
    p.add_argument("--max-norm", type=int, default=DEFAULT_MAX_NORM)
    p.add_argument("--method", choices=["product", "enumerate", "both"],
                   default="both")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("flows-of-norm", help="count flows of one squared norm")
    p.add_argument("file")
    p.add_argument("--norm", type=int, required=True)
    p.set_defaults(func=_cmd_flows_of_norm)

    p = sub.add_parser("compare", help="codichromatic comparison of two graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-norm", type=int, default=DEFAULT_MAX_NORM)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("torsion", help="product-quotient invariant factors")
    p.add_argument("file")
    p.add_argument("--degrees", required=True, metavar="i,j")
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser("verify", help="identity and inequality suite")
    p.add_argument("file")
    p.add_argument("--all", action="store_true",
                   help="include the expensive structural checks")
    p.add_argument("--max-norm", type=int, default=DEFAULT_MAX_NORM)
    p.add_argument("--trials", type=int, default=0,
                   help="orientation-invariance trials")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="verify all small connected multigraphs")
    p.add_argument("--max-edges", type=int, default=DEFAULT_CORPUS_EDGES)
    p.add_argument("--max-norm", type=int, default=DEFAULT_MAX_NORM)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        doc, code = args.func(args, started)
    except CapacityError as exc:
        print(json.dumps({"error": str(exc), "kind": "capacity"}, indent=2))
        return EXIT_CAPACITY
    except FlowAlgError as exc:
        kind = "check" if isinstance(exc, CheckError) else "input"
        print(json.dumps({"error": str(exc), "kind": kind}, indent=2))
        return EXIT_CHECK_FAILURE if kind == "check" else EXIT_INPUT_ERROR
    print(json.dumps(doc, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
