"""Search for Tutte-equal graph pairs whose theta series differ, the
evidence behind the acceptance-criterion-7 entry of the decisions ledger in
CHANGES.md.

For each vertex count n given (default 6), enumerate every loopless
multigraph on n vertices with n + 4 edges, one per isomorphism class
(``canonical_key``), growing them one edge at a time from the edgeless
graph.  Keep the connected, bridgeless ones: connected with n + 4 edges
means cycle rank 5, the rank of the Figure 1 pair.  Group them by Tutte
polynomial and compare the theta series of every Tutte-equal pair up to
norm 8, reporting where each differing pair first differs and its numbers
of flows of norm 7.

Run from a checkout; n = 7 takes about 40 s on one core.  The committed
output, ``figure_pair_search.out``, is that of:

    PYTHONPATH=src python3 tools/figure_pair_search.py 6 7
"""

from __future__ import annotations

import pathlib
import sys
from collections import Counter
from itertools import combinations

from flowalg.cli import parse_graph
from flowalg.corpus import canonical_key
from flowalg.graph import Graph
from flowalg.lattice import theta_enumerate
from flowalg.tutte import tutte

GRAPH_DIR = pathlib.Path(__file__).resolve().parent.parent / "graphs"
NORM_BOUND = 8
CYCLE_RANK = 5


def loopless_multigraphs(n: int, m: int) -> list[Graph]:
    """One graph per isomorphism class of loopless multigraphs with
    vertices 1..n and m edges, connected or not."""
    vertices = tuple(range(1, n + 1))
    level = [Graph(vertices, ())]
    for k in range(1, m + 1):
        seen = set()
        nxt = []
        for g in level:
            for u, v in combinations(vertices, 2):
                cand = Graph(vertices, g.edges + ((k, u, v),))
                key = canonical_key(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
        level = nxt
    return level


def search(n: int, figure_keys: set) -> None:
    m = n - 1 + CYCLE_RANK
    graphs = loopless_multigraphs(n, m)
    kept = [g for g in graphs if g.num_components == 1
            and not any(g.is_cut_edge(eid) for eid in g.edge_ids)]
    groups: dict[tuple, list[Graph]] = {}
    for g in kept:
        groups.setdefault(tuple(tutte(g).sorted_items()), []).append(g)
    shared = [grp for grp in groups.values() if len(grp) > 1]
    print(f"{n} vertices, {m} edges: {len(graphs)} classes, {len(kept)} "
          f"connected and bridgeless, {len(groups)} Tutte classes, "
          f"{len(shared)} with more than one graph")
    first_at = Counter()
    for grp in shared:
        theta = [theta_enumerate(g, NORM_BOUND) for g in grp]
        for a, b in combinations(range(len(grp)), 2):
            first = theta[a].first_difference(theta[b])
            if first is None:
                continue
            first_at[first] += 1
            pair = (grp[a], grp[b])
            n7 = tuple(theta[k].coefficient(7) for k in (a, b))
            figure = ({canonical_key(g) for g in pair} == figure_keys)
            print(f"  pair: first difference at norm {first}, norm-7 counts "
                  f"{n7[0]}/{n7[1]}"
                  + (" (the Figure 1 pair)" if figure else ""))
            for g in pair:
                print(f"    edges {[(t, h) for _, t, h in g.edges]}")
    print(f"  {sum(first_at.values())} Tutte-equal pairs with different "
          f"theta series to norm {NORM_BOUND}; first difference: "
          + ", ".join(f"norm {k}: {v}" for k, v in sorted(first_at.items())))


def main(argv: list[str]) -> None:
    figure_keys = {canonical_key(parse_graph(str(GRAPH_DIR / name)))
                   for name in ("fig1_left.g", "fig1_right.g")}
    for n in map(int, argv or ["6"]):
        search(n, figure_keys)


if __name__ == "__main__":
    main(sys.argv[1:])
