"""Brute-force relation matrices on contractions and everything derived
from them: graded rank sequences, torsion checks, integral circulation
lattices, and product-quotient groups.

This is the definition-level oracle: each degree-j relation matrix holds,
for every (j-1)-subset sigma of edges, one signed conservation row per vertex
of the contraction X/sigma, exactly as the definition states.  The vertices
of X/sigma are the classes of the partition that sigma's components make,
which depends on the undirected graph alone, and a graph has far fewer
partitions than masks.  So ``_class_table`` holds them once: a partition id
per mask, and per distinct partition its labels and, for each class, the
masks of the edges with their head (into) and with their tail (out) in it.
It is built edge by edge, each step joining every partition seen so far
across the next edge once, not a contracted graph per subset.  A row is held
as (sigma, v, plus, minus), the edge masks of its +1 and -1 entries: the
edges outside sigma that enter v's class (plus = into & ~out) and that leave
it (minus = out & ~into).  An edge e owns the column sigma | e.
``relation_matrix`` reads the rows of one degree from the table and expands
them to sparse (subset mask, +-1) rows.  Ranks of these matrices give the
rank sequence independently of the Tutte route.

``relation_matrix`` returns every row of the definition, but the rows of
each component of X/sigma sum to zero, so the eliminations take them
grounded (``_grounded_rows``): without the row of each component's least
vertex, its root, which is minus the sum of the others.  The ranks, the
Smith factors and the kernels are those of the whole matrix.

The table of the last graph asked for is kept, so the degrees of one graph
(``rank_sequence``, ``torsion_check``, ``integral_circulations``) share one
table.  A re-oriented copy is another graph, so its table is built from the
copy alone.  The sign rule (``_is_flipped_table``): reversing a set F of
edges keeps every partition and moves exactly the edges of F between the two
port masks, so a faithful copy's table has the reference partition ids and
classes and the ports into & ~F | out & F, out & ~F | into & F.  Its rows
are then plus & ~F | minus & F, minus & ~F | plus & F under the same labels:
the reference entry at column sigma | e negated exactly when e is in F.  So
each relation matrix of the copy is R M D for +-1 diagonals R and D (the
parities of F on each row's sigma and each column's subset) and has the
reference rank.

A degree-j column is named by its j-subset mask everywhere, from the
relation rows through the kernels to the circulation tables, as in the
paper, where an element of Hom(K^j(X), B) is a function on the j-subsets.
Masks ascend as the positions of ``subset_masks`` do, so every Hermite form,
kernel basis and Smith form is the one of the positional matrix, relabelled.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .circulation import Circulation, ZZ, subset_masks
from .errors import InputError, check_failed, require_capacity
from .graph import Graph
from .linalg import integer_kernel_basis, rank_int_rows, smith_normal_form


class RelationMatrix(NamedTuple):
    """Signed incidence relations of all (j-1)-fold contractions, expressed
    over the degree-j subset basis.

    ``rows[i]`` is a sparse tuple of (subset mask, coefficient) pairs,
    masks ascending, labeled by ``row_labels[i] = (sigma mask, image
    vertex)``; zero rows are kept so the generating set matches the
    definition row for row.  ``basis`` holds the column masks, ascending.
    """
    basis: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    row_labels: tuple[tuple[int, int], ...]


def relation_matrix(g: Graph, j: int) -> RelationMatrix:
    """Degree-j relation matrix: for each (j-1)-subset sigma, the
    conservation row of every vertex of the contraction X/sigma.

    The edge-mask rows of degree j are read from the class table, which
    degree 0, having no rows, does not build, and neither does degree 1,
    whose only sigma is empty: its rows come from the vertex ports of g,
    the table's ports for the empty mask.  Edge e of row
    (sigma, v, plus, minus) is the entry at column sigma | e, +1 if e is in
    plus and -1 if it is in minus.  Rows follow ascending sigma, then
    ascending image vertex.
    """
    m = g.num_edges
    require_capacity(m)
    if not 0 <= j <= m:
        raise InputError(f"degree {j} out of range 0..{m}")
    if j == 1:
        # the empty sigma: every class is one vertex of g itself
        rows = ((0, v, into & ~out, out & ~into)
                for v, into, out in _vertex_ports(g))
    else:
        rows = _table_rows(_class_table(g), j) if j else ()
    # each surviving edge lies outside sigma and owns its own column
    # sigma | e, so a row never gets two entries in one column; the columns
    # grow with the edge, so every row comes out sorted
    out = []
    labels = []
    for sigma, v, plus, minus in rows:
        row = []
        both = plus | minus
        while both:
            bit = both & -both
            both ^= bit
            row.append((sigma | bit, 1 if plus & bit else -1))
        out.append(tuple(row))
        labels.append((sigma, v))
    return RelationMatrix(subset_masks(m, j), tuple(out), tuple(labels))


class _ClassTable(NamedTuple):
    """The classes of every edge mask, held once per distinct partition.
    ``part[sigma]`` is the partition id of mask sigma; ``classes[p]`` has
    the image label of each vertex, the least vertex id of its class;
    ``ports[p]`` has one (v, into, out) per image vertex v, ascending, with
    the masks of the edges whose head and whose tail lie in v's class."""
    part: list[int]
    classes: list[tuple[int, ...]]
    ports: list[tuple[tuple[int, int, int], ...]]


@lru_cache(maxsize=1)
def _class_table(g: Graph) -> _ClassTable:
    """The class table of g, built edge by edge: the masks whose highest
    edge is e are the masks below 2^e joined across e, so each step joins
    every partition seen so far once and extends ``part`` through that
    join.  A joined class takes the union of both port masks.

    The table of the last graph is kept and handed to every caller that
    asks for the same graph, so no caller may mutate it; a changed table
    is made with ``_replace``."""
    require_capacity(g.num_edges)
    at = {v: i for i, v in enumerate(g.vertices)}
    ends = [(at[t], at[h]) for _, t, h in g.edges]
    classes = [g.vertices]
    table = [_vertex_ports(g)]
    index = {g.vertices: 0}
    part = [0]
    for t, h in ends:
        te = []
        for p in range(len(classes)):
            cls = classes[p]
            a, b = cls[t], cls[h]
            if a == b:
                te.append(p)
                continue
            if a > b:
                a, b = b, a
            joined = tuple([a if c == b else c for c in cls])
            q = index.get(joined)
            if q is None:
                q = index[joined] = len(classes)
                classes.append(joined)
                for v, into_b, out_b in table[p]:
                    if v == b:
                        break
                table.append(tuple([
                    (v, into | into_b, out | out_b) if v == a
                    else (v, into, out)
                    for v, into, out in table[p] if v != b]))
            te.append(q)
        part.extend([te[p] for p in part])
    return _ClassTable(part, classes, table)


def _vertex_ports(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """The ports of the empty mask, where every class is one vertex: one
    (v, into, out) per vertex v, ascending, with the masks of the edges
    whose head and whose tail is v."""
    into = dict.fromkeys(sorted(g.vertices), 0)
    out = into.copy()
    for i, (_, t, h) in enumerate(g.edges):
        into[h] |= 1 << i
        out[t] |= 1 << i
    return tuple([(v, into[v], out[v]) for v in into])


def _is_flipped_table(table: _ClassTable, ref: _ClassTable,
                      flip_mask: int) -> bool:
    """Whether ``table`` is the class table ``ref`` with the edges of
    ``flip_mask`` moved between the two port masks of every class: the
    same partition of every mask and the same classes, so that each of its
    edge-mask rows is the flipped reference row under the same label (the
    sign rule of the module docstring)."""
    keep = ~flip_mask
    return (table.part == ref.part and table.classes == ref.classes
            and table.ports == [
                tuple([(v, into & keep | out & flip_mask,
                        out & keep | into & flip_mask)
                       for v, into, out in ports])
                for ports in ref.ports])


def _table_rows(table: _ClassTable,
                j: int) -> Iterator[tuple[int, int, int, int]]:
    """The degree-j edge-mask rows, j >= 1, read from a class table: row
    (sigma, v, plus, minus) has a (j-1)-subset sigma, ascending, an image
    vertex v of X/sigma, ascending, and the masks of the edges outside
    sigma that enter and leave v's class.  An edge with both ends in v's
    class (a loop of X/sigma, every edge of sigma among them) is in both
    port masks and so in neither plus nor minus."""
    m = len(table.part).bit_length() - 1
    part, ports = table.part, table.ports
    return ((sigma, v, into & ~out, out & ~into)
            for sigma in subset_masks(m, j - 1)
            for v, into, out in ports[part[sigma]])


def _grounded_rows(g: Graph, rel: RelationMatrix) -> list:
    """The rows of a relation matrix of g whose image vertex is not a root
    of g (``Graph._roots``): one row fewer per component of each X/sigma.

    Contracting sigma keeps the components, and the class of a component's
    least vertex is labelled by it, so each component of X/sigma has
    exactly one root among its image vertices.  Every edge outside sigma
    adds +1 to its head's row and -1 to its tail's, within one component
    (a loop of X/sigma adds nothing), so the rows of a component sum to
    zero: the root's row is minus the sum of the others.  The grounded rows
    span the same lattice, with the same rank, Smith factors and kernel.
    A list, because the benchmark's row counter takes its length."""
    roots = g._roots
    return [row for row, (_, v) in zip(rel.rows, rel.row_labels)
            if v not in roots]


def rank_sequence(g: Graph) -> tuple[int, ...]:
    """d_j = C(m, j) - rank(relations of degree j) for j = 0..m, each rank
    taken on the grounded rows."""
    m = g.num_edges
    require_capacity(m)
    # each matrix is dropped before the next degree is built
    return tuple(comb(m, j)
                 - rank_int_rows(_grounded_rows(g, relation_matrix(g, j)))
                 for j in range(m + 1))


def torsion_check(g: Graph, j: int) -> bool:
    """True iff the degree-j quotient is free: every nonzero invariant
    factor of the relation matrix, taken on its grounded rows, equals 1."""
    rows = _grounded_rows(g, relation_matrix(g, j))
    return all(f == 1 for f in smith_normal_form(rows))


def integral_circulations(g: Graph, j: int) -> list[Circulation]:
    """Basis of the integer kernel of the degree-j relation matrix (of its
    grounded rows), in row Hermite form over the subset basis, as
    circulations over Z."""
    rel = relation_matrix(g, j)
    return [Circulation(ZZ, v) for v in
            integer_kernel_basis(_grounded_rows(g, rel), rel.basis)]


def product_torsion(g: Graph, i: int, j: int) -> tuple[int, ...]:
    """Invariant factors (> 1) of the degree-(i+j) integer circulation
    lattice modulo products of degree-i and degree-j lattice elements.

    The lattice L is an integer kernel, so it is saturated and a direct
    summand of Z^N on the degree-(i+j) subset basis; the torsion of L / S
    is therefore that of Z^N / S, the Smith form of the product rows.
    Each product is checked to annihilate the degree-(i+j) relations, on
    their grounded rows, whose span holds every row.

    Degenerate degrees (rank-zero lattice, e.g. any forest) yield the
    trivial group, reported as an empty tuple.
    """
    if i < 1 or j < 1:
        raise InputError("product torsion needs degrees i, j >= 1")
    m = g.num_edges
    require_capacity(m)
    if i + j > m:
        return ()
    rel = relation_matrix(g, i + j)
    rows = _grounded_rows(g, rel)
    d = len(rel.basis) - rank_int_rows(rows)
    if not d:
        return ()
    low_i = integral_circulations(g, i)
    low_j = low_i if i == j else integral_circulations(g, j)
    if not low_i or not low_j:
        return ()
    products = []
    for phi in low_i:
        for theta in low_j:
            prod = phi * theta
            if not prod.annihilates(rows):
                raise check_failed(g, "product membership",
                                   f"a product of degrees {i} and {j} is "
                                   f"not a degree-{i + j} circulation")
            products.append(prod.table)
    factors = smith_normal_form(products)
    if len(factors) != d:
        raise InputError("product subgroup has infinite index; "
                         "the quotient is not a finite group")
    return tuple(f for f in factors if f != 1)
