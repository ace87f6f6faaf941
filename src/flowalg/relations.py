"""Brute-force relation matrices on contractions and everything derived
from them: graded rank sequences, torsion checks, integral circulation
lattices, and product-quotient groups.

This is the definition-level oracle: each degree-j relation matrix holds,
for every (j-1)-subset sigma of edges, one signed conservation row per vertex
of the contraction X/sigma, exactly as the definition states.  The image
vertices come from the vertex classes of each edge mask, built level by level
from the masks one edge smaller, not from a contracted graph per subset.
Ranks of these matrices give the rank sequence independently of the Tutte
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .circulation import Circulation, ZZ, subset_masks
from .errors import InputError, check_failed, require_capacity
from .graph import Graph
from .linalg import integer_kernel_basis, rank_int_rows, smith_normal_form


@dataclass(frozen=True)
class RelationMatrix:
    """Signed incidence relations of all (j-1)-fold contractions, expressed
    over the degree-j subset basis.

    ``rows[i]`` is a sparse tuple of (column index, coefficient) pairs,
    columns ascending, labeled by ``row_labels[i] = (sigma mask, image
    vertex)``; zero rows are kept so the generating set matches the
    definition row for row.
    """
    degree: int
    basis: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    row_labels: tuple[tuple[int, int], ...]

    def dense(self) -> list[list[int]]:
        out = []
        for row in self.rows:
            dense = [0] * len(self.basis)
            for col, val in row:
                dense[col] = val
            out.append(dense)
        return out

    @property
    def num_columns(self) -> int:
        return len(self.basis)


def relation_matrix(g: Graph, j: int) -> RelationMatrix:
    """Degree-j relation matrix: for each (j-1)-subset sigma, the
    conservation row of every vertex of the contraction X/sigma.

    The vertices of X/sigma are the classes of (V, sigma), each named by its
    minimum vertex id.  They are built level by level over the masks: the
    classes of sigma are those of sigma minus its lowest edge, joined across
    that edge.  Rows follow ascending sigma, then ascending image vertex.
    """
    m = g.num_edges
    require_capacity(m)
    if not 0 <= j <= m:
        raise InputError(f"degree {j} out of range 0..{m}")
    basis = tuple(subset_masks(m, j))
    if j == 0:
        return RelationMatrix(0, basis, (), ())
    at = {v: i for i, v in enumerate(g.vertices)}
    ends = [(at[t], at[h]) for _, t, h in g.edges]
    # classes[sigma][i]: the image of the i-th vertex in X/sigma
    classes = {0: g.vertices}
    for k in range(1, j):
        level = {}
        for sigma in subset_masks(m, k):
            low = sigma & -sigma
            cls = classes[sigma ^ low]
            t, h = ends[low.bit_length() - 1]
            a, b = cls[t], cls[h]
            if a != b:
                if a > b:
                    a, b = b, a
                cls = tuple([a if c == b else c for c in cls])
            level[sigma] = cls
        classes = level
    # each surviving edge owns its own column sigma | e, so a row never
    # gets two entries in one column and every entry is +-1; columns grow
    # with the edge position, so every row comes out sorted
    plus = {mask: (c, 1) for c, mask in enumerate(basis)}
    minus = {mask: (c, -1) for c, mask in enumerate(basis)}
    edges = [(1 << i, t, h) for i, (t, h) in enumerate(ends) if t != h]
    rows = []
    labels = []
    for sigma, cls in classes.items():
        incident: dict[int, list[tuple[int, int]]] = {
            v: [] for v in sorted(set(cls))}
        for bit, t, h in edges:
            if sigma & bit:
                continue
            tail, head = cls[t], cls[h]
            if tail != head:
                incident[head].append(plus[sigma | bit])
                incident[tail].append(minus[sigma | bit])
        for v, row in incident.items():
            rows.append(tuple(row))
            labels.append((sigma, v))
    return RelationMatrix(j, basis, tuple(rows), tuple(labels))


def rank_sequence(g: Graph) -> tuple[int, ...]:
    """d_j = C(m, j) - rank(relations of degree j) for j = 0..m."""
    m = g.num_edges
    require_capacity(m)
    out = []
    for j in range(m + 1):
        rel = relation_matrix(g, j)
        rnk = rank_int_rows(rel.rows)
        out.append(comb(m, j) - rnk)
    return tuple(out)


def torsion_check(g: Graph, j: int) -> bool:
    """True iff the degree-j quotient is free: every nonzero invariant
    factor of the relation matrix equals 1."""
    rel = relation_matrix(g, j)
    return all(f == 1 for f in smith_normal_form(rel.dense()))


def integral_circulations(g: Graph, j: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of the degree-j relation matrix, in
    Hermite-style echelon form; coordinates follow the subset basis."""
    rel = relation_matrix(g, j)
    dense = [row for row in rel.dense() if any(row)] or [[0] * rel.num_columns]
    return [tuple(v) for v in integer_kernel_basis(dense)]


def circulation_from_coords(g: Graph, j: int, coords) -> Circulation:
    """Wrap an integer coordinate vector over the degree-j subset basis as a
    circulation table over Z."""
    masks = subset_masks(g.num_edges, j)
    return Circulation(ZZ, {mask: c for mask, c in zip(masks, coords) if c})


def product_torsion(g: Graph, i: int, j: int) -> tuple[int, ...]:
    """Invariant factors (> 1) of the degree-(i+j) integer circulation
    lattice modulo products of degree-i and degree-j lattice elements.

    The lattice L is an integer kernel, so it is saturated and a direct
    summand of Z^N on the degree-(i+j) subset basis; the torsion of L / S
    is therefore that of Z^N / S, the Smith form of the product rows.
    Each product is checked to annihilate the degree-(i+j) relations.

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
    d = rel.num_columns - rank_int_rows(rel.rows)
    if not d:
        return ()
    low_i = [circulation_from_coords(g, i, v)
             for v in integral_circulations(g, i)]
    low_j = (low_i if i == j else
             [circulation_from_coords(g, j, v)
              for v in integral_circulations(g, j)])
    if not low_i or not low_j:
        return ()
    products = []
    for phi in low_i:
        for theta in low_j:
            prod = phi * theta
            if not prod.annihilates(rel.rows, rel.basis):
                raise check_failed(g, "product membership",
                                   f"a product of degrees {i} and {j} is "
                                   f"not a degree-{i + j} circulation")
            products.append([prod.table.get(mask, 0) for mask in rel.basis])
    factors = smith_normal_form(products)
    if len(factors) != d:
        raise InputError("product subgroup has infinite index; "
                         "the quotient is not a finite group")
    return tuple(f for f in factors if f != 1)
