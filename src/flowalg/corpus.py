"""Exhaustive corpus of small connected multigraphs, one per isomorphism
class.

Every connected multigraph with m >= 1 edges arises from one with m - 1
edges by adding an edge between existing vertices (possibly a loop) or by
attaching a pendant vertex, so the corpus is grown level by level and
deduplicated through a canonical form: the lexicographically least relabeled
edge multiset over all vertex orders compatible with an iterated
degree-refinement coloring.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import InputError
from .graph import Graph, build


def canonical_key(g: Graph) -> tuple:
    """Isomorphism-invariant key: vertex count plus the minimal relabeled
    undirected edge multiset."""
    n = g.num_vertices
    verts = list(g.vertices)
    loops = {v: 0 for v in verts}
    nbrs: dict[int, dict[int, int]] = {v: {} for v in verts}
    for _, t, h in g.edges:
        if t == h:
            loops[t] += 1
        else:
            nbrs[t][h] = nbrs[t].get(h, 0) + 1
            nbrs[h][t] = nbrs[h].get(t, 0) + 1
    color = {v: (loops[v], sum(nbrs[v].values())) for v in verts}
    for _ in range(3):
        color = {v: (color[v],
                     tuple(sorted((color[u], mult)
                                  for u, mult in nbrs[v].items())))
                 for v in verts}
    classes: dict[object, list[int]] = {}
    for v in verts:
        classes.setdefault(color[v], []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]
    best = None
    for perm_combo in product(*(permutations(cls) for cls in ordered_classes)):
        index = {}
        i = 0
        for cls in perm_combo:
            for v in cls:
                index[v] = i
                i += 1
        key = sorted((min(index[t], index[h]), max(index[t], index[h]))
                     for _, t, h in g.edges)
        key = tuple(key)
        if best is None or key < best:
            best = key
    return (n, best)


def _extensions(g: Graph):
    """All one-edge extensions preserving connectivity."""
    new_eid = g.num_edges + 1
    verts = list(g.vertices)
    for i, u in enumerate(verts):
        for v in verts[i:]:
            yield Graph(g.vertices, g.edges + ((new_eid, u, v),))
    new_v = max(verts) + 1
    for u in verts:
        yield Graph(tuple(sorted(g.vertices + (new_v,))),
                    g.edges + ((new_eid, u, new_v),))


_cache: dict[int, list[Graph]] = {}


def connected_multigraphs(max_edges: int) -> list[Graph]:
    """All connected multigraphs with at most ``max_edges`` edges, one
    representative per isomorphism class, ordered by edge count."""
    if max_edges < 0:
        raise InputError(f"edge bound {max_edges} is negative")
    if max_edges in _cache:
        return _cache[max_edges]
    base = max((k for k in _cache if k < max_edges), default=None)
    if base is not None:
        out = list(_cache[base])
        frontier = [g for g in out if g.num_edges == base]
        seen = {canonical_key(g) for g in out}
        start = base + 1
    else:
        seed = build([], isolated=[1])
        out = [seed]
        frontier = [seed]
        seen = {canonical_key(seed)}
        start = 1
    for _ in range(start, max_edges + 1):
        level = []
        for g in frontier:
            for cand in _extensions(g):
                key = canonical_key(cand)
                if key not in seen:
                    seen.add(key)
                    level.append(cand)
        out.extend(level)
        frontier = level
    _cache[max_edges] = out
    return out
