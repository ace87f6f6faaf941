import importlib
import operator
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import flowalg.errors as errors
from flowalg.circulation import (GF, QQ, ZZ, Circulation, divided_power,
                                 exponential, monomial_dimensions, nilpotence,
                                 pseudopower, relation_membership_check,
                                 verify_inequalities)
from flowalg.errors import CapacityError, CheckError, InputError
from flowalg.graph import (bouquet_graph, build, complete_graph, cycle_graph,
                           path_graph)
from flowalg.tutte import poincare, trimmed

circulation_mod = importlib.import_module("flowalg.circulation")


def beta_of(g, chord):
    return Circulation.from_edge_vector(ZZ, g.basic_flows()[chord])


def test_unit_is_identity():
    phi = Circulation(ZZ, {0b1: 3, 0b110: -2})
    assert Circulation.unit(ZZ) * phi == phi


def test_singleton_products_concatenate():
    xi_e = Circulation(ZZ, {0b01: 1})
    xi_c = Circulation(ZZ, {0b10: 1})
    assert xi_e * xi_c == Circulation(ZZ, {0b11: 1})


def test_ring_mismatch_rejected():
    with pytest.raises(InputError):
        Circulation(ZZ, {0b1: 1}) * Circulation(QQ, {0b1: 1})


def test_divided_power_binomial_on_cycle():
    g = cycle_graph(5)
    beta = beta_of(g, 5)
    for i in range(0, 4):
        for j in range(0, 4 - i):
            lhs = divided_power(beta, i) * divided_power(beta, j)
            rhs = divided_power(beta, i + j).scale(comb(i + j, j))
            assert lhs == rhs


def test_exponential_of_zero_is_unit():
    assert exponential(Circulation(QQ, {})) == Circulation.unit(QQ)


def test_exponential_requires_positive_degree():
    with pytest.raises(InputError):
        exponential(Circulation(QQ, {0: 1}))


def test_exponential_is_homomorphism():
    phi = Circulation(QQ, {0b001: 2, 0b010: Fraction(1, 2)})
    theta = Circulation(QQ, {0b100: -1, 0b010: 3})
    assert exponential(phi + theta) == exponential(phi) * exponential(theta)


def test_exponential_support_ceiling(monkeypatch):
    monkeypatch.setattr(errors, "MAX_SUBSET_EDGES", 2)
    phi = Circulation(ZZ, {0b1: 1, 0b110: 1})
    with pytest.raises(CapacityError):
        exponential(phi)
    assert exponential(Circulation(ZZ, {0b11: 1})).table == {0: 1, 0b11: 1}


def test_exponential_matches_power_series_over_q():
    phi = Circulation(QQ, {0b001: 1, 0b010: -2, 0b100: Fraction(3, 2)})
    exp = exponential(phi)
    series = Circulation.unit(QQ)
    power = Circulation.unit(QQ)
    fact = 1
    for r in range(1, 5):
        power = power * phi
        fact *= r
        series = series + power.scale(Fraction(1, fact))
    assert exp == series


def test_degree_one_divided_power_is_support_product():
    g = cycle_graph(3)
    beta = beta_of(g, 3)
    assert divided_power(beta, 0) == Circulation.unit(ZZ)
    assert divided_power(beta, 1) == beta
    top = divided_power(beta, 3)
    assert list(top.table) == [0b111]
    assert abs(top.table[0b111]) == 1
    assert divided_power(beta, 4).is_zero()


def test_nilpotence_values():
    for n in (2, 3, 5):
        g = cycle_graph(n)
        beta = beta_of(g, n)
        assert nilpotence(beta) == n
        beta2 = Circulation.from_edge_vector(GF(2), g.basic_flows()[n])
        assert nilpotence(beta2) == 1
    assert nilpotence(Circulation(ZZ, {})) == 0


def test_nilpotence_prime_field_rule():
    g = cycle_graph(5)
    flow = g.basic_flows()[5]
    for p in (2, 3, 5):
        phi = Circulation.from_edge_vector(GF(p), flow)
        assert nilpotence(phi) == min(p - 1, 5)


def test_monomial_dimensions_examples():
    assert monomial_dimensions(complete_graph(4)) == [1, 3, 6, 10, 11, 6, 1]
    for n in (2, 3, 4, 5):
        assert monomial_dimensions(cycle_graph(n)) == [1] * (n + 1)
    assert monomial_dimensions(path_graph(4)) == [1]


def test_monomial_dimensions_match_tutte_above_seven_edges(fig1_left,
                                                          fig1_right):
    for g in (complete_graph(5), fig1_left, fig1_right):
        assert g.num_edges == 10
        assert tuple(monomial_dimensions(g)) == trimmed(poincare(g))


def test_pseudopower_values():
    assert pseudopower(0, 3) == 0
    assert pseudopower(3, 1) == 6
    assert pseudopower(4, 2) == 5
    assert pseudopower(6, 2) == 10
    assert pseudopower(10, 3) == 15
    with pytest.raises(InputError):
        pseudopower(-1, 1)
    with pytest.raises(InputError):
        pseudopower(3, 0)


def test_relation_membership_cycle():
    out = relation_membership_check(cycle_graph(3))
    assert out["passed"]
    (entry,) = out["generators"]
    assert entry["support"] == 3
    assert entry["nilpotence"] == 3
    assert out["dimension_total"] == out["spanning_subgraph_count"]


def test_relation_membership_k4_generator_family():
    out = relation_membership_check(complete_graph(4))
    assert out["passed"]
    supports = sorted(e["support"] for e in out["generators"])
    # three fundamental triangles, the outer triangle, and three 4-cycles
    assert supports == [3, 3, 3, 3, 4, 4, 4]
    for entry in out["generators"]:
        assert entry["nilpotence"] == entry["support"]
        assert entry["vanishes_beyond_support"]


def test_relation_membership_check_names_stage_and_graph(monkeypatch):
    g = cycle_graph(3)
    monkeypatch.setattr(circulation_mod, "divided_power",
                        lambda phi, k: Circulation.unit(phi.ring))
    with pytest.raises(CheckError, match="divided power") as info:
        relation_membership_check(g)
    assert str(list(g.edges)) in str(info.value)


def test_single_cycle_support_needs_connectivity():
    # two disjoint 2-cycles: every vertex has degree two, yet no one cycle
    g = build([(1, 1, 2), (2, 2, 1), (3, 3, 4), (4, 4, 3)])
    both = Circulation(ZZ, {1 << i: 1 for i in range(4)})
    one = Circulation(ZZ, {0b1: 1, 0b10: 1})
    assert not circulation_mod._supports_single_cycle(g, both)
    assert circulation_mod._supports_single_cycle(g, one)
    loop = build([(1, 1, 1)])
    assert circulation_mod._supports_single_cycle(
        loop, Circulation(ZZ, {0b1: 1}))


def test_relation_membership_forest():
    out = relation_membership_check(path_graph(3))
    assert out["passed"]
    assert out["generators"] == []
    assert out["dimension_total"] == 1


def test_verify_inequalities_k4():
    rep = verify_inequalities(complete_graph(4))
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "pseudopower-growth" in names
    assert "girth-range-binomial" in names
    # d_2 = 6 <= psi_1(3) = 6, d_3 = 10 <= psi_2(6) = 10, d_4 = 11 <= 15
    d = poincare(complete_graph(4))
    assert d[2] == pseudopower(d[1], 1)
    assert d[3] == pseudopower(d[2], 2)
    assert d[4] <= pseudopower(d[3], 3) == 15
    # girth range: d_j = C(2 + j, j) for j <= 3
    assert [d[j] for j in range(4)] == [comb(2 + j, j) for j in range(4)]


def test_verify_inequalities_cycles_and_bouquets():
    for g in [cycle_graph(4), cycle_graph(6), bouquet_graph(3), path_graph(4)]:
        rep = verify_inequalities(g)
        assert rep.passed, [c for c in rep.checks if not c.passed]


def test_gf_validation():
    with pytest.raises(InputError):
        GF(4)
    with pytest.raises(InputError):
        GF(101)
    assert GF(97).char == 97


@pytest.mark.parametrize("ring, table", [
    (ZZ, {1: 1.5}), (GF(5), {1: 2.7}), (QQ, {1: 0.1}), (ZZ, {1: "3"}),
    (ZZ, {1: Fraction(1, 2)}), (GF(3), {1: Fraction(1, 3)})])
def test_coefficients_that_are_refused(ring, table):
    with pytest.raises(InputError):
        Circulation(ring, table)


def test_scale_refuses_a_float():
    with pytest.raises(InputError):
        Circulation(ZZ, {1: 1}).scale(2.9)


def test_coefficient_images():
    stored = Circulation(ZZ, {1: Fraction(4, 2)}).table[1]
    assert stored == 2 and type(stored) is int
    assert Circulation(GF(5), {1: Fraction(1, 2), 2: -1, 4: 10}).table == {
        1: 3, 2: 4}
    assert Circulation(QQ, {1: Fraction(2, 6)}).table == {1: Fraction(1, 3)}


def _mod(table, p):
    """Reduction mod p of an integer table, zeros dropped."""
    return {m: v % p for m, v in table.items() if v % p}


_values = st.integers(-30, 30)
_tables = st.dictionaries(st.integers(0, 31), _values, max_size=8)
_degree_one = st.dictionaries(st.sampled_from((1, 2, 4, 8, 16)), _values)


@settings(max_examples=200, deadline=None)
@given(_tables, _tables, _values, _degree_one, st.integers(0, 5),
       st.sampled_from((2, 3, 5, 97)))
def test_reduction_mod_p_is_a_ring_homomorphism(a, b, c, beta, j, p):
    """Reducing a result over Z mod p gives the same operation done in F_p
    on the reduced inputs; over Q, integer tables give the result over Z."""
    fp = GF(p)
    ops = (operator.add, operator.sub, operator.mul,
           lambda x, y: x.scale(c))
    for op in ops:
        over_z = op(Circulation(ZZ, a), Circulation(ZZ, b)).table
        assert op(Circulation(fp, _mod(a, p)),
                  Circulation(fp, _mod(b, p))).table == _mod(over_z, p)
        assert op(Circulation(QQ, a), Circulation(QQ, b)).table == over_z
    positive = {m: v for m, v in a.items() if m}
    over_z = exponential(Circulation(ZZ, positive)).table
    assert exponential(Circulation(fp, _mod(positive, p))).table == _mod(
        over_z, p)
    assert exponential(Circulation(QQ, positive)).table == over_z
    over_z = divided_power(Circulation(ZZ, beta), j).table
    assert divided_power(Circulation(fp, _mod(beta, p)), j).table == _mod(
        over_z, p)
    assert divided_power(Circulation(QQ, beta), j).table == over_z
