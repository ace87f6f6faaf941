"""Exhaustive corpus of small connected multigraphs, one per isomorphism
class.

Every connected multigraph with m >= 1 edges arises from one with m - 1
edges by adding an edge between existing vertices (possibly a loop) or by
attaching a pendant vertex, so the corpus is grown level by level and
deduplicated through a canonical form found by individualisation and
refinement (McKay and Piperno, "Practical graph isomorphism, II", 2014).
Vertex colours, starting from loop counts, are refined to the stable
partition: a vertex's next colour ranks its colour together with the
sorted colours and multiplicities of its neighbours.  While a cell has more
than one vertex, the search branches on the first such cell, gives each of
its vertices in turn a colour of its own and refines again; a vertex that is
a twin of one already tried there (same loops, same multiplicity to every
other vertex) is skipped, because swapping twins is an automorphism.  Every
leaf is a discrete partition, that is a vertex order, and the form is the
least relabelled edge list over the leaves.  The search tree depends only
on the isomorphism class, so equal forms mean isomorphic graphs.
"""

from __future__ import annotations

from . import errors
from .errors import CapacityError
from .graph import Graph, build


def _refine(colour: list[int], cells: int, nbrs) -> tuple[list[int], int]:
    """The stable refinement of a colouring by dense integer ranks, and its
    number of cells.  A vertex's new colour ranks its colour with the sorted
    (colour, multiplicity) pairs of its neighbours, so the cell order is
    kept and every cell only splits."""
    n = len(colour)
    while cells < n:
        sigs = [(c, tuple(sorted([(colour[u], m) for u, m in nb])))
                for c, nb in zip(colour, nbrs)]
        order = sorted(set(sigs))
        if len(order) == cells:
            break
        rank = {s: i for i, s in enumerate(order)}
        colour = [rank[s] for s in sigs]
        cells = len(order)
    return colour, cells


def canonical_key(g: Graph) -> tuple:
    """Isomorphism-invariant key: the vertex count and the least sorted
    tuple of relabelled undirected edges (lower label first) over the leaves
    of the individualisation-refinement search (see the module docstring).
    Two graphs have equal keys exactly when they are isomorphic."""
    n = g.num_vertices
    pos = {v: i for i, v in enumerate(g.vertices)}
    loops = [0] * n
    mult: list[dict[int, int]] = [{} for _ in range(n)]
    pairs = []
    for _, t, h in g.edges:
        a, b = pos[t], pos[h]
        pairs.append((a, b))
        if a == b:
            loops[a] += 1
        else:
            mult[a][b] = mult[a].get(b, 0) + 1
            mult[b][a] = mult[b].get(a, 0) + 1
    nbrs = [tuple(d.items()) for d in mult]
    values = sorted(set(loops))
    colour, cells = _refine([values.index(x) for x in loops], len(values),
                            nbrs)
    # vertex -> least twin; twins always share a stable colour, so only
    # vertices of one cell are compared
    twin_of = list(range(n))
    if cells < n:
        for u in range(n):
            for v in range(u + 1, n):
                if (twin_of[v] == v and colour[v] == colour[u]
                        and loops[u] == loops[v]):
                    mu, mv = dict(mult[u]), dict(mult[v])
                    mu.pop(v, None)
                    mv.pop(u, None)
                    if mu == mv:
                        twin_of[v] = twin_of[u]
    best = None

    def search(colour: list[int], cells: int) -> None:
        """Every leaf below a stable colouring."""
        nonlocal best
        if cells == n:
            leaf = tuple(sorted([(x, y) if x <= y else (y, x)
                                 for x, y in ((colour[a], colour[b])
                                              for a, b in pairs)]))
            if best is None or leaf < best:
                best = leaf
            return
        counts = [0] * cells
        for c in colour:
            counts[c] += 1
        c = next(i for i, k in enumerate(counts) if k > 1)
        tried = set()
        for v in range(n):
            if colour[v] != c or twin_of[v] in tried:
                continue
            tried.add(twin_of[v])
            search(*_refine([x + (x > c or (x == c and w != v))
                             for w, x in enumerate(colour)], cells + 1, nbrs))

    search(colour, cells)
    return (n, best)


def _extensions(g: Graph):
    """All one-edge extensions preserving connectivity."""
    new_eid = g.num_edges + 1
    verts = list(g.vertices)
    for i, u in enumerate(verts):
        for v in verts[i:]:
            yield Graph._derived(g.vertices, g.edges + ((new_eid, u, v),))
    new_v = max(verts) + 1
    for u in verts:
        yield Graph._derived(tuple(sorted(g.vertices + (new_v,))),
                             g.edges + ((new_eid, u, new_v),))


_cache: dict[int, list[Graph]] = {}


def connected_multigraphs(max_edges: int) -> list[Graph]:
    """All connected multigraphs with at most ``max_edges`` edges, one
    representative per isomorphism class, ordered by edge count.  The
    bound is checked by ``errors.require_bound``, and one above
    ``MAX_CORPUS_EDGES`` is refused with ``CapacityError``."""
    errors.require_bound("edge bound", max_edges)
    if max_edges > errors.MAX_CORPUS_EDGES:
        raise CapacityError(
            f"corpus of {max_edges} edges requested; at most "
            f"{errors.MAX_CORPUS_EDGES} are supported")
    if max_edges in _cache:
        return _cache[max_edges]
    base = max((k for k in _cache if k < max_edges), default=None)
    if base is None:
        out, base = [build([], isolated=[1])], 0
    else:
        out = list(_cache[base])
    frontier = [g for g in out if g.num_edges == base]
    for _ in range(base + 1, max_edges + 1):
        # a key holds the edge list, so graphs of different levels never
        # share one and the keys of earlier levels are not needed
        seen = set()
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
