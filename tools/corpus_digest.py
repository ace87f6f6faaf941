"""One SHA-256 over the results of the corpus-7 checks, so that "results
unchanged" by a change to the program can be stated and repeated.

For every graph of ``connected_multigraphs(7)``, in the corpus's order, one
line is hashed: the JSON of the graph's vertices and edges, the check list
of ``verify_graph(g, 12)`` (``CheckReport.as_dicts``, in report order) and
the result of ``orientation_invariance(g, 50)``.  The script prints the
graph count and the hex digest.  Two trees that print the same line give
the same verdict, detail text included, on every check of every graph.

A second line gives the SHA-256 of ``json.dumps(run_corpus(7),
sort_keys=True)``, the results of ``flowalg corpus --max-edges 7``, so two
trees that print it alike give the same corpus report however the runner
shares the graphs out among processes.

Run from a checkout; it takes about 30 s on a 2-CPU machine, as
``run_corpus`` finds the Tutte memo already warm.  The committed output,
``corpus_digest.out``, is that of:

    PYTHONPATH=src python3 tools/corpus_digest.py
"""

from __future__ import annotations

import hashlib
import json

from flowalg.corpus import connected_multigraphs
from flowalg.verify import orientation_invariance, run_corpus, verify_graph

MAX_EDGES = 7
THETA_BOUND = 12
TRIALS = 50


def main() -> None:
    digest = hashlib.sha256()
    graphs = connected_multigraphs(MAX_EDGES)
    for g in graphs:
        line = json.dumps([g.vertices, g.edges,
                           verify_graph(g, THETA_BOUND).as_dicts(),
                           orientation_invariance(g, TRIALS)])
        digest.update(line.encode() + b"\n")
    print(f"corpus {MAX_EDGES}: {len(graphs)} graphs, "
          f"verify_graph(g, {THETA_BOUND}) and "
          f"orientation_invariance(g, {TRIALS}): sha256 {digest.hexdigest()}")
    results = json.dumps(run_corpus(MAX_EDGES), sort_keys=True)
    print(f"corpus {MAX_EDGES}: run_corpus({MAX_EDGES}) results: sha256 "
          f"{hashlib.sha256(results.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
