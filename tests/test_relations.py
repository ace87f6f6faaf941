from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from flowalg.circulation import ZZ, Circulation, subset_masks
from flowalg.corpus import connected_multigraphs
from flowalg.errors import CapacityError, CheckError, InputError
from flowalg.graph import (Graph, bouquet_graph, build, complete_graph,
                           cycle_graph, dipole_graph, disjoint_union,
                           path_graph)
from flowalg.linalg import (det_int, integer_kernel_basis, rank_int_rows,
                            smith_normal_form)
from flowalg.relations import (RelationMatrix, _class_table, _grounded_rows,
                               integral_circulations, product_torsion,
                               rank_sequence, relation_matrix, torsion_check)

from conftest import ids_of, rref, sparse


def contraction_reference(g, j):
    """The definition built literally: contract each (j-1)-subset into a
    graph and write the conservation row of every image vertex."""
    m = g.num_edges
    bit = {eid: 1 << i for i, eid in enumerate(g.edge_ids)}
    rows = []
    labels = []
    for sigma in subset_masks(m, j - 1) if j >= 1 else []:
        image = g.contract(ids_of(g, sigma))
        incident = {v: [] for v in image.vertices}
        for eid, tail, head in image.edges:
            if tail == head:
                continue
            c = sigma | bit[eid]
            incident[head].append((c, 1))
            incident[tail].append((c, -1))
        for v in image.vertices:
            rows.append(tuple(sorted(incident[v])))
            labels.append((sigma, v))
    return RelationMatrix(subset_masks(m, j), tuple(rows), tuple(labels))


@st.composite
def multigraphs(draw):
    """Multigraphs with loops, parallel edges and isolated vertices, possibly
    disconnected, with vertex and edge ids in no particular order."""
    vertices = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6,
                             unique=True))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                   st.sampled_from(vertices)), max_size=7))
    eids = draw(st.lists(st.integers(0, 60), min_size=len(ends),
                         max_size=len(ends), unique=True))
    return Graph(tuple(vertices),
                 tuple((e, t, h) for e, (t, h) in zip(eids, ends)))


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_relation_matrix_matches_contraction_reference(g):
    for j in range(g.num_edges + 1):
        assert relation_matrix(g, j) == contraction_reference(g, j)


# two components, a loop, a parallel pair, isolated vertices, and vertex ids
# out of order
MIXED = Graph((9, 4, 12, 1, 7, 3, 20),
              ((5, 9, 4), (2, 4, 9), (8, 4, 12), (1, 12, 9), (6, 12, 12),
               (3, 1, 7), (4, 7, 1)))


def test_relation_matrix_matches_reference_on_a_mixed_multigraph():
    for j in range(MIXED.num_edges + 1):
        assert relation_matrix(MIXED, j) == contraction_reference(MIXED, j)


def test_relation_matrix_matches_reference_on_corpus5(corpus5):
    for g in corpus5:
        for j in range(g.num_edges + 1):
            assert relation_matrix(g, j) == contraction_reference(g, j)


def test_relation_matrix_matches_reference_on_corpus6():
    # the six-edge graphs; those with fewer edges are corpus 5's
    six = [g for g in connected_multigraphs(6) if g.num_edges == 6]
    for g in [MIXED, *six]:
        for j in range(g.num_edges + 1):
            assert relation_matrix(g, j) == contraction_reference(g, j)


def test_the_degrees_of_a_graph_share_one_class_table():
    g = complete_graph(4)
    _class_table.cache_clear()
    rank_sequence(g)
    for j in range(g.num_edges + 1):
        torsion_check(g, j)
    assert _class_table.cache_info().misses == 1


def test_relation_matrix_degree_zero_is_empty():
    rel = relation_matrix(cycle_graph(3), 0)
    assert rel.rows == ()
    assert rel.basis == (0,)


# C10 plus the chords i -> i+3: a class table would have 2^20 masks
C10_CHORDS = build([(i, i, i % 10 + 1) for i in range(1, 11)]
                   + [(10 + i, i, (i + 2) % 10 + 1) for i in range(1, 11)])


def test_relation_matrix_degree_zero_builds_no_class_table():
    misses = _class_table.cache_info().misses
    assert relation_matrix(C10_CHORDS, 0) == RelationMatrix((0,), (), ())
    assert _class_table.cache_info().misses == misses


def test_relation_matrix_degree_one_builds_no_class_table():
    # degree 1 reads only the empty mask, whose classes are the vertices
    misses = _class_table.cache_info().misses
    assert (relation_matrix(C10_CHORDS, 1)
            == contraction_reference(C10_CHORDS, 1))
    assert _class_table.cache_info().misses == misses


def test_relation_matrix_triangle_degree_one():
    rel = relation_matrix(cycle_graph(3), 1)
    assert len(rel.rows) == 3
    assert rank_int_rows(rel.rows) == 2
    # rows for the empty contraction sum to zero
    total = {}
    for row in rel.rows:
        for col, val in row:
            total[col] = total.get(col, 0) + val
    assert all(v == 0 for v in total.values())


def test_relation_matrix_triangle_degree_two():
    rel = relation_matrix(cycle_graph(3), 2)
    assert len(rel.rows) == 6  # three contractions, two vertices each
    assert rank_int_rows(rel.rows) == 2


def test_relation_rows_supported_on_extensions():
    g = complete_graph(4)
    rel = relation_matrix(g, 3)
    for row, (sigma, _) in zip(rel.rows, rel.row_labels):
        for mask, _ in row:
            assert mask & sigma == sigma  # column contains the contraction set


def test_grounding_keeps_the_row_lattice(corpus5):
    # the rows of each component of X/sigma sum to zero, so the rows of
    # the roots, one per component, are dropped without changing the rank,
    # the Smith factors or the integer kernel
    two_parts = disjoint_union(cycle_graph(3), disjoint_union(
        dipole_graph(2), build([(1, 1, 1)], isolated=[2])))
    for g in [*corpus5, two_parts]:
        _, least = g.components()
        for j in range(g.num_edges + 1):
            rel = relation_matrix(g, j)
            sums = {}
            for row, (sigma, v) in zip(rel.rows, rel.row_labels):
                acc = sums.setdefault((sigma, least[v]), {})
                for mask, coef in row:
                    acc[mask] = acc.get(mask, 0) + coef
            assert all(not any(acc.values()) for acc in sums.values())
            grounded = _grounded_rows(g, rel)
            assert len(rel.rows) - len(grounded) == len(sums), (g.edges, j)
            assert rank_int_rows(grounded) == rank_int_rows(rel.rows)
            assert smith_normal_form(grounded) == smith_normal_form(rel.rows)
            assert (integer_kernel_basis(grounded, rel.basis)
                    == integer_kernel_basis(rel.rows, rel.basis))


def test_rank_sequence_examples():
    assert rank_sequence(cycle_graph(3)) == (1, 1, 1, 1)
    assert rank_sequence(complete_graph(4)) == (1, 3, 6, 10, 11, 6, 1)
    assert rank_sequence(path_graph(4)) == (1, 0, 0, 0)


def test_torsion_check():
    assert torsion_check(cycle_graph(3), 2)
    assert torsion_check(cycle_graph(3), 0)
    k4 = complete_graph(4)
    assert all(torsion_check(k4, j) for j in range(7))


def test_integral_circulations_triangle():
    basis = integral_circulations(cycle_graph(3), 1)
    assert len(basis) == 1
    assert {m: abs(x) for m, x in basis[0].table.items()} == {
        1: 1, 2: 1, 4: 1}


def test_integral_circulations_forest_and_k4():
    assert integral_circulations(path_graph(3), 1) == []
    basis = integral_circulations(complete_graph(4), 1)
    assert len(basis) == 3
    gram = [[sum(a * v.value(m) for m, a in u.table.items()) for v in basis]
            for u in basis]
    assert det_int(gram) == 16


def test_integral_circulations_of_an_all_zero_matrix():
    """Two loops: every relation row is zero, so the lattice of each degree
    is spanned by the C(2, j) unit vectors."""
    g = bouquet_graph(2)
    for j in range(3):
        assert all(not row for row in relation_matrix(g, j).rows)
        assert integral_circulations(g, j) == [
            Circulation(ZZ, {mask: 1}) for mask in subset_masks(2, j)]


def test_integral_circulations_annihilate_relations():
    g = complete_graph(4)
    for j in (1, 2, 3):
        rel = relation_matrix(g, j)
        for psi in integral_circulations(g, j):
            assert psi.ring == ZZ and psi.is_homogeneous(j)
            for row in rel.rows:
                assert sum(val * psi.value(mask) for mask, val in row) == 0


def test_product_torsion_cycles():
    for n in range(2, 7):
        g = cycle_graph(n)
        for i in range(1, n):
            for j in range(1, n - i + 1):
                expected = comb(i + j, i)
                factors = product_torsion(g, i, j)
                assert factors == (expected,), (n, i, j, factors)


def test_product_torsion_triangle_instance():
    assert product_torsion(cycle_graph(3), 1, 1) == (2,)


def test_product_torsion_forest_trivial():
    assert product_torsion(path_graph(4), 1, 1) == ()
    assert product_torsion(path_graph(4), 2, 3) == ()


def test_product_torsion_input_validation():
    with pytest.raises(InputError):
        product_torsion(cycle_graph(3), 0, 1)


def coordinate_reference(g, i, j):
    """The product quotient by the coordinate route: each product's
    rational coordinates in the Hermite basis of the degree-(i+j) lattice,
    required integral, then the Smith form of the coefficient matrix."""
    if i + j > g.num_edges:
        return ()
    basis = integral_circulations(g, i + j)
    low_i = integral_circulations(g, i)
    low_j = integral_circulations(g, j)
    if not basis or not low_i or not low_j:
        return ()
    masks = subset_masks(g.num_edges, i + j)
    products = [[(phi * theta).value(mask) for mask in masks]
                for phi in low_i for theta in low_j]
    d = len(basis)
    red, pivots = rref([[Fraction(b.value(mask)) for b in basis]
                        + [Fraction(p[c]) for p in products]
                        for c, mask in enumerate(masks)])
    assert pivots == list(range(d))  # every product in the basis span
    coeff = [red[r][d:] for r in range(d)]
    assert all(x.denominator == 1 for row in coeff for x in row)
    factors = smith_normal_form(sparse([[int(x) for x in row]
                                        for row in coeff]))
    assert len(factors) == d  # finite index
    return tuple(f for f in factors if f != 1)


def test_product_torsion_matches_coordinate_reference(corpus5):
    for g in corpus5:
        m = g.num_edges
        for i in range(1, m + 1):
            for j in range(i, m + 1 - i):
                assert (product_torsion(g, i, j)
                        == coordinate_reference(g, i, j)), (g, i, j)


def test_product_torsion_k4_values():
    k4 = complete_graph(4)
    pinned = {(1, 1): (2, 2, 2), (1, 2): (3, 3, 3), (1, 3): (2, 2),
              (2, 2): (3, 3, 3, 3, 3)}
    for i in range(1, 7):
        for j in range(i, 7 - i):
            assert product_torsion(k4, i, j) == pinned.get((i, j), ()), (i, j)


def test_product_leaving_the_lattice_is_a_check_failure(monkeypatch):
    real = Circulation.__mul__

    def off_lattice(self, other):
        prod = real(self, other)
        mask = min(prod.table)
        return prod + Circulation(prod.ring, {mask: 1})

    monkeypatch.setattr(Circulation, "__mul__", off_lattice)
    with pytest.raises(CheckError, match="product membership"):
        product_torsion(cycle_graph(3), 1, 1)


def test_rank_additivity_on_relation_route():
    # d_j(X) = d_j(X minus e) + d_(j-1)(X contract e) for non-cut edges,
    # measured directly on relation-matrix ranks
    for g in [complete_graph(4), cycle_graph(4), bouquet_graph(2),
              build([(1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 3, 3)])]:
        d = rank_sequence(g)
        for eid in g.edge_ids:
            if g.is_cut_edge(eid):
                deleted = rank_sequence(g.delete([eid]))
                for j in range(len(deleted)):
                    assert d[j] == deleted[j]
                continue
            deleted = rank_sequence(g.delete([eid]))
            contracted = rank_sequence(g.contract([eid]))
            for j in range(g.num_edges + 1):
                dj_del = deleted[j] if j < len(deleted) else 0
                dj_con = contracted[j - 1] if 1 <= j <= len(contracted) else 0
                assert d[j] == dj_del + dj_con


def test_capacity_guard():
    big = build([(i, 1, 2) for i in range(1, 22)])
    with pytest.raises(CapacityError):
        relation_matrix(big, 1)
    with pytest.raises(CapacityError):
        rank_sequence(big)
    with pytest.raises(CapacityError):
        _class_table(big)
