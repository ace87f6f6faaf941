"""Randomized algebra laws (hypothesis) and structural invariants checked
over the small-graph corpus."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from flowalg.circulation import (GF, QQ, ZZ, Circulation, divided_power,
                                 exponential, nilpotence)
from flowalg.corpus import connected_multigraphs
from flowalg.graph import build, complete_graph, cycle_graph
from flowalg.relations import (_class_table, _is_flipped_table,
                               relation_matrix)
from flowalg.verify import multiplication_rank_check

from conftest import degrees, ids_of

RINGS = [QQ, ZZ, GF(2), GF(3), GF(5)]

rings = st.sampled_from(RINGS)
masks = st.integers(min_value=0, max_value=31)
coeffs = st.integers(min_value=-4, max_value=4)


def tables(min_mask=0):
    return st.dictionaries(st.integers(min_value=min_mask, max_value=31),
                           coeffs, max_size=6)


def degree_one_tables():
    return st.dictionaries(st.sampled_from([1, 2, 4, 8, 16]), coeffs,
                           min_size=1, max_size=5)


@settings(max_examples=40)
@given(rings, tables(), tables(), tables())
def test_multiply_associative(ring, a, b, c):
    x, y, z = (Circulation(ring, t) for t in (a, b, c))
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40)
@given(rings, tables(), tables())
def test_multiply_commutative(ring, a, b):
    x, y = Circulation(ring, a), Circulation(ring, b)
    assert x * y == y * x


@settings(max_examples=30)
@given(rings, tables())
def test_unit_law(ring, a):
    x = Circulation(ring, a)
    assert Circulation.unit(ring) * x == x


@settings(max_examples=30)
@given(rings, st.dictionaries(st.sampled_from([1, 2, 4]), coeffs, max_size=3),
       st.dictionaries(st.sampled_from([3, 5, 6, 7]), coeffs, max_size=3))
def test_grading(ring, a, b):
    x = Circulation(ring, a)  # degree 1
    y = Circulation(ring, {m: v for m, v in b.items()})  # degree 2 or 3
    prod = x * y
    degrees_x = degrees(x)
    degrees_y = degrees(y)
    if len(degrees_x) == 1 and len(degrees_y) == 1:
        dx, dy = degrees_x.pop(), degrees_y.pop()
        assert prod.is_zero() or degrees(prod) == {dx + dy}


@settings(max_examples=40)
@given(rings, tables(min_mask=1), tables(min_mask=1))
def test_exponential_homomorphism(ring, a, b):
    a.pop(0, None)
    b.pop(0, None)
    phi, theta = Circulation(ring, a), Circulation(ring, b)
    assert exponential(phi + theta) == exponential(phi) * exponential(theta)


@settings(max_examples=40)
@given(degree_one_tables())
def test_nilpotence_characteristic_zero(table):
    for ring in (QQ, ZZ):
        phi = Circulation(ring, table)
        assert nilpotence(phi) == len(phi.table)


@settings(max_examples=40)
@given(st.sampled_from([2, 3, 5]), degree_one_tables())
def test_nilpotence_prime_field(p, table):
    phi = Circulation(GF(p), table)
    assert nilpotence(phi) == min(p - 1, len(phi.table))


@settings(max_examples=40)
@given(rings, degree_one_tables(), st.integers(0, 3), st.integers(0, 3))
def test_divided_power_binomial(ring, table, i, j):
    phi = Circulation(ring, table)
    lhs = divided_power(phi, i) * divided_power(phi, j)
    rhs = divided_power(phi, i + j).scale(comb(i + j, i))
    assert lhs == rhs


@settings(max_examples=30)
@given(degree_one_tables(), st.integers(1, 4))
def test_divided_power_is_scaled_power_over_q(table, j):
    phi = Circulation(QQ, table)
    power = Circulation.unit(QQ)
    fact = 1
    for r in range(1, j + 1):
        power = power * phi
        fact *= r
    assert divided_power(phi, j) == power.scale(Fraction(1, fact))


# -- corpus-level structural invariants --------------------------------------


def _disjoint_splits(m, rng=None, limit=None):
    splits = []
    for code in range(3 ** m):
        sigma, rho = [], []
        c = code
        for i in range(m):
            c, r = divmod(c, 3)
            if r == 1:
                sigma.append(i)
            elif r == 2:
                rho.append(i)
        splits.append((sigma, rho))
    if limit is not None and len(splits) > limit:
        splits = rng.sample(splits, limit)
    return splits


def test_contraction_commutes(corpus5, corpus7):
    rng = random.Random(7)
    six = [g for g in corpus7 if g.num_edges == 6]
    jobs = [(g, None) for g in corpus5] + [(g, 150) for g in six]
    for g, limit in jobs:
        ids = list(g.edge_ids)
        for sig_idx, rho_idx in _disjoint_splits(len(ids), rng, limit):
            sigma = [ids[i] for i in sig_idx]
            rho = [ids[i] for i in rho_idx]
            direct = g.contract(sigma + rho)
            stepwise = g.contract(sigma).contract(rho)
            assert direct == stepwise


def test_cut_row_sums_over_corpus(corpus5):
    rng = random.Random(11)
    for g in corpus5:
        for _ in range(3):
            inside = {v for v in g.vertices if rng.random() < 0.5}
            total = [0] * g.num_edges
            for v in inside:
                total = [a + b for a, b in zip(total, g.incidence_row(v))]
            for i, (_, tail, head) in enumerate(g.edges):
                expect = (1 if head in inside else 0) - (1 if tail in inside else 0)
                assert total[i] == expect


def test_basic_flows_are_flows(corpus5):
    for g in corpus5:
        forest = g.maximal_forest()
        assert len(forest) == g.num_vertices - g.num_components
        for flow in g.basic_flows().values():
            for v in g.vertices:
                row = g.incidence_row(v)
                assert sum(a * b for a, b in zip(row, flow)) == 0


def test_basic_flows_read_from_one_tree():
    for g in connected_multigraphs(6):
        chords = tuple(sorted(set(g.edge_ids) - g.maximal_forest()))
        flows = g.basic_flows()
        assert tuple(flows) == chords
        for c, flow in flows.items():
            for v in g.vertices:
                row = g.incidence_row(v)
                assert sum(a * b for a, b in zip(row, flow)) == 0
            assert [flow[g.position(d)] for d in chords] == [
                int(d == c) for d in chords]


def test_flow_closure(corpus4):
    # the product of two flows annihilates the degree-2 relations
    for g in corpus4:
        flows = [Circulation.from_edge_vector(ZZ, flow)
                 for flow in g.basic_flows().values()]
        if len(flows) < 2:
            continue
        rel = relation_matrix(g, 2)
        for a in flows:
            for b in flows:
                assert (a * b).annihilates(rel.rows)


def test_multiplication_rank_small_corpus(corpus4):
    for g in corpus4:
        assert multiplication_rank_check(g)
    assert multiplication_rank_check(complete_graph(4))
    assert multiplication_rank_check(cycle_graph(6))


graph_ends = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                      min_size=1, max_size=6)


def _numbered(ends):
    return build([(i, t, h) for i, (t, h) in enumerate(ends, start=1)])


@settings(max_examples=60, deadline=None)
@given(graph_ends, st.integers(min_value=0, max_value=63))
def test_reoriented_relation_matrix_is_signed_reference(ends, flip_mask):
    # Reversing an edge negates exactly its entries: in row (sigma, v) the
    # entry at column c changes sign iff the edge c adds to sigma is flipped.
    g = _numbered(ends)
    flip_mask &= (1 << g.num_edges) - 1
    g2 = g.reorient(ids_of(g, flip_mask))
    for j in range(g.num_edges + 1):
        ref = relation_matrix(g, j)
        rel = relation_matrix(g2, j)
        assert rel.row_labels == ref.row_labels
        signed = tuple(
            tuple((c, -v if (c ^ sigma) & flip_mask else v)
                  for c, v in row)
            for (sigma, _), row in zip(ref.row_labels, ref.rows))
        assert rel.rows == signed


@settings(max_examples=60, deadline=None)
@given(graph_ends)
def test_class_table_expands_to_the_edge_mask_rows(ends):
    g = _numbered(ends)
    m = g.num_edges
    table = _class_table(g)
    assert len(table.part) == 1 << m
    assert len(set(table.classes)) == len(table.classes) == len(table.ports)
    for cls, ports in zip(table.classes, table.ports):
        # one port entry per class, named by the class's least vertex
        assert [v for v, _, _ in ports] == sorted(set(cls))
        assert all(c == min(u for u, d in zip(g.vertices, cls) if d == c)
                   for c in cls)
        # every edge has its head in exactly one class and its tail in one
        for masks in ([into for _, into, _ in ports],
                      [out for _, _, out in ports]):
            assert sum(masks) == (1 << m) - 1
            assert not any(a & b for i, a in enumerate(masks)
                           for b in masks[i + 1:])


@settings(max_examples=60, deadline=None)
@given(graph_ends, st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=5))
def test_flipped_table_test_needs_the_true_flip_mask(ends, flip_mask, pick):
    g = _numbered(ends)
    non_loops = [i for i, (_, t, h) in enumerate(g.edges) if t != h]
    assume(non_loops)
    flip_mask &= (1 << g.num_edges) - 1
    edge = non_loops[pick % len(non_loops)]
    wrong = flip_mask ^ 1 << edge
    ref = _class_table(g)
    table = _class_table(g.reorient(ids_of(g, flip_mask)))
    # the one-edge mask of a non-loop edge read with the classes of the
    # empty mask: the same classes and ports, one mask moved
    moved = table._replace(part=[0 if sigma == 1 << edge else p
                                 for sigma, p in enumerate(table.part)])
    assert _is_flipped_table(table, ref, flip_mask)
    assert not _is_flipped_table(table, ref, wrong)
    assert not _is_flipped_table(moved, ref, flip_mask)
