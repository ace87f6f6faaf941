"""One corpus workload run, in a fresh interpreter so that the Tutte memo
and the corpus cache start cold, as they do for a user.

    python3 perfbench/corpus_worker.py --workload corpus-verify --seed 3 \
        --seconds 30 [--trace] [--items N] [--setup-only]

Set-up is timed from the first ``flowalg`` import through corpus
generation and sampling.  Items (one graph each) then run one after another
in a closed loop until ``--seconds`` have passed or the sample is used up;
``--items N`` runs exactly the first N items instead, which replays another
run's items.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from time import perf_counter

import tracing

# One graph in STRIDE of corpus 7 (1,682 graphs), starting at seed % STRIDE.
STRIDE = 4
CORPUS_EDGES = 7


def sample(graphs, offset: int) -> list[tuple[int, object]]:
    """Every STRIDE-th corpus graph from ``offset``, interleaved across edge
    counts so that any prefix of the run has the sample's mix of sizes (the
    corpus itself is ordered by edge count)."""
    picked = list(enumerate(graphs))[offset::STRIDE]
    by_edges: dict[int, list] = {}
    for idx, g in picked:
        by_edges.setdefault(g.num_edges, []).append((idx, g))
    keyed = []
    for level in by_edges.values():
        for k, item in enumerate(level):
            keyed.append(((k + 0.5) / len(level), item[1].num_edges, item))
    keyed.sort(key=lambda t: t[:2])
    return [t[2] for t in keyed]


def run_item(workload: str, g, verify, orientation_invariance):
    """Run one graph; return (passed, result) where ``result`` is a plain
    value that identifies the outputs."""
    try:
        if workload == "corpus-verify":
            report = verify(g, theta_bound=12)
            return report.passed, [(c.name, c.passed, c.detail, c.exploratory)
                                   for c in report.checks]
        ok = orientation_invariance(g, trials=50, seed=2024)
        return ok is True, ok
    except Exception as exc:  # an item that raises is a failed item
        return False, f"{type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("corpus-verify", "corpus-orient"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--items", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    profile = tracing.Profile() if args.trace else None
    t0 = perf_counter()
    import flowalg.corpus
    import flowalg.verify
    out = {}
    if profile is not None:
        t_cli = perf_counter()
        import flowalg.cli  # noqa: F401  (timed for cli.import_s)
        out["import_s"] = perf_counter() - t_cli
        tracing.install(profile)
    offset = args.seed % STRIDE
    items = sample(flowalg.corpus.connected_multigraphs(CORPUS_EDGES), offset)
    out.update(setup_s=perf_counter() - t0, offset=offset, stride=STRIDE,
               sample_size=len(items))
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.items is not None:
        items = items[:args.items]
    verify = flowalg.verify.verify_graph
    orient = flowalg.verify.orientation_invariance
    records = []
    start = perf_counter()
    deadline = start + args.seconds
    for idx, g in items:
        if args.items is None and records and perf_counter() >= deadline:
            break
        t = perf_counter()
        passed, result = run_item(args.workload, g, verify, orient)
        latency = perf_counter() - t
        digest = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
        records.append({"graph": idx, "latency_s": latency,
                        "passed": passed, "digest": digest,
                        **({} if passed else {"result": repr(result)[:500]})})
    out.update(wall_s=perf_counter() - start, items=records,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024)
    if profile is not None:
        out["profile"] = profile.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
