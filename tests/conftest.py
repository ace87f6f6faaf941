import pathlib
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from flowalg.cli import parse_graph
from flowalg.corpus import connected_multigraphs
from flowalg.graph import Graph, _components, build
from flowalg.series import QSeries
from flowalg.tutte import BiPoly

GRAPH_DIR = pathlib.Path(__file__).resolve().parent.parent / "graphs"


def rref(mat):
    """Reduced row echelon form and pivot column indices (copy; exact
    rational Gauss-Jordan elimination).  A reference for the integer
    routines of ``flowalg.linalg``; the library itself has no rational
    elimination."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if m[r][c] != 1:
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * b for x, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def min_norm_affine_rational(mat, i, value, ncols):
    """The minimum-norm point of {x : mat x = 0, x_i = value} by a rational
    solve, one coordinate at a time, or None where it does not exist: one
    ``rref`` of [mat mat^T | mat e_i], free variables 0, then
    value P e_i / (P e_i)_i.  A reference for the all-coordinates solve of
    ``flowalg.linalg.min_norm_affine``."""
    value = Fraction(value)
    r = len(mat)
    red, pivots = rref([[sum(a * b for a, b in zip(r1, r2)) for r2 in mat]
                        + [r1[i]] for r1 in mat])
    y = [Fraction(0)] * r
    for k, p in enumerate(pivots):
        y[p] = red[k][r]
    proj = [int(c == i) - sum(y[k] * mat[k][c] for k in range(r))
            for c in range(ncols)]
    if proj[i] == 0:
        return [Fraction(0)] * ncols if value == 0 else None
    return [x * value / proj[i] for x in proj]


def sparse(mat):
    """The sparse rows (dicts column -> value, zeros dropped) of a dense
    integer matrix, the row format of the ``flowalg.linalg`` eliminations."""
    return [{c: v for c, v in enumerate(row) if v} for row in mat]


def to_dense(rows, columns):
    """Dense lists over the ascending column keys ``columns`` (such as
    ``range(n)`` or the subset masks of a relation matrix) from sparse rows
    (dicts or sequences of (column, value) pairs)."""
    index = {c: i for i, c in enumerate(columns)}
    out = []
    for row in rows:
        dense = [0] * len(index)
        for c, v in dict(row).items():
            dense[index[c]] = v
        out.append(dense)
    return out


def dense(rel):
    """The dense matrix of a ``RelationMatrix``, one list per row, one
    column per subset mask of its basis."""
    return to_dense(rel.rows, rel.basis)


def reference_hermite_rows(rows):
    """Row Hermite normal form, zero rows dropped, by dense column-by-column
    gcd reduction: positive pivots, entries above each pivot reduced into
    [0, pivot).  A reference for ``flowalg.linalg.hermite_rows``, which
    reduces sparse rows one by one."""
    m = [list(r) for r in rows]
    if not m:
        return m
    nc = len(m[0])
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        # gcd-reduce all rows below against the pivot row
        for i in range(r + 1, len(m)):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [row for row in m if any(row)]


def reference_forest_count(g):
    """Number of maximal forests by enumeration: the edge sets of size
    n - k whose spanning subgraph keeps the graph's k components, which are
    exactly the acyclic ones.  A reference for
    ``flowalg.tutte.count_spanning_forests``, the matrix-tree determinant;
    it lists C(m, n - k) edge sets, so only for small graphs."""
    k = g.num_components
    return sum(1 for subset in combinations(g.edges, g.num_vertices - k)
               if _components(g.vertices,
                              [(t, h) for _, t, h in subset])[0] == k)


def ids_of(g, mask):
    """The ids of the edges of ``g`` at the set bits of ``mask``, in edge
    list order."""
    return tuple(eid for i, (eid, _, _) in enumerate(g.edges) if mask >> i & 1)


def qseries_one(bound):
    """The q-series 1, truncated at ``bound``."""
    return QSeries(((Fraction(0), 1),), Fraction(bound))


def qseries_zero(bound):
    """The zero q-series, truncated at ``bound``."""
    return QSeries((), Fraction(bound))


def bipoly_one():
    """The constant polynomial 1 in two variables."""
    return BiPoly({(0, 0): 1})


def degrees(circ):
    """The set of degrees (subset sizes) on which a circulation has a
    nonzero value."""
    return {mask.bit_count() for mask in circ.table}


def is_loop(g, eid):
    _, tail, head = g.edge(eid)
    return tail == head


def reference_is_cut_edge(g, eid):
    """Whether deleting the edge increases the component count, by counting
    the components with and without it.  A reference for the bridges of
    ``flowalg.graph.Graph.blocks``, which come from one depth-first search;
    loops are never cut-edges."""
    _, tail, head = g.edge(eid)
    if tail == head:
        return False
    k_after = _components(
        g.vertices, [(t, h) for e, t, h in g.edges if e != eid])[0]
    return k_after > g.num_components


@st.composite
def small_multigraphs(draw):
    """Up to 8 edges on up to 6 vertices, with loops, parallel edges,
    isolated vertices and several components, in any edge order (so a
    vertex's last edge may come first and be forgotten early)."""
    vertices = list(range(1, draw(st.integers(1, 6)) + 1))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                   st.sampled_from(vertices)), max_size=8))
    edges = draw(st.permutations([(k, t, h)
                                  for k, (t, h) in enumerate(ends, 1)]))
    return build(edges, isolated=vertices)


def reference_key(g):
    """Isomorphism-invariant key by brute force: the vertex count and the
    least sorted relabelled edge list over every vertex order compatible
    with three rounds of degree refinement.  A reference for
    ``flowalg.corpus.canonical_key``; factorial in the class sizes, so only
    for small graphs."""
    verts = list(g.vertices)
    loops = {v: 0 for v in verts}
    nbrs = {v: {} for v in verts}
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
    classes = {}
    for v in verts:
        classes.setdefault(color[v], []).append(v)
    best = None
    for combo in product(*(permutations(classes[c]) for c in sorted(classes))):
        index = {v: i for i, v in enumerate(v for cls in combo for v in cls)}
        key = tuple(sorted((min(index[t], index[h]), max(index[t], index[h]))
                           for _, t, h in g.edges))
        if best is None or key < best:
            best = key
    return (len(verts), best)


def reference_multigraphs(max_edges):
    """The corpus grown as ``connected_multigraphs`` grows it (each graph
    extended by a new edge between two of its vertices, then by a pendant
    vertex, in that order), deduplicated by ``reference_key``."""
    seed = build([], isolated=[1])
    out, frontier, seen = [seed], [seed], {reference_key(seed)}
    for m in range(1, max_edges + 1):
        level = []
        for g in frontier:
            verts = g.vertices
            new_v = verts[-1] + 1
            cands = [Graph(verts, g.edges + ((m, u, v),))
                     for i, u in enumerate(verts) for v in verts[i:]]
            cands += [Graph(verts + (new_v,), g.edges + ((m, u, new_v),))
                      for u in verts]
            for cand in cands:
                key = reference_key(cand)
                if key not in seen:
                    seen.add(key)
                    level.append(cand)
        out += level
        frontier = level
    return out


@pytest.fixture(scope="session")
def corpus4():
    return connected_multigraphs(4)


@pytest.fixture(scope="session")
def corpus5():
    return connected_multigraphs(5)


@pytest.fixture(scope="session")
def corpus7():
    return connected_multigraphs(7)


@pytest.fixture(scope="session")
def fig1_left():
    return parse_graph(str(GRAPH_DIR / "fig1_left.g"))


@pytest.fixture(scope="session")
def fig1_right():
    return parse_graph(str(GRAPH_DIR / "fig1_right.g"))


@pytest.fixture(scope="session")
def graph_dir():
    return GRAPH_DIR
