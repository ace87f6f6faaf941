import random
from collections import Counter
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings

import flowalg.errors as errors
import flowalg.lattice as lattice_mod
from flowalg.cli import parse_graph
from flowalg.errors import CapacityError, CheckError, InputError
from flowalg.corpus import connected_multigraphs
from flowalg.graph import (bouquet_graph, build, complete_graph, cycle_graph,
                           dipole_graph, disjoint_union, path_graph)
from flowalg.lattice import (CharacteristicFlow, characteristic_flow,
                             codichromatic_compare,
                             coset_system, flows_of_norm, lattice,
                             theta_enumerate, theta_product)
from flowalg.linalg import min_norm_affine
from flowalg.series import QSeries
from flowalg.tutte import complexity

from conftest import (min_norm_affine_rational, qseries_one, qseries_zero,
                      reference_is_cut_edge, small_multigraphs)

F = Fraction


def test_characteristic_flow_triangle():
    flow = characteristic_flow(cycle_graph(3), 1)
    assert [abs(x) for x in flow.chi] == [1, 1, 1]
    assert flow.norm == 3
    assert flow.chi[0] == 1


def test_characteristic_flow_loop():
    flow = characteristic_flow(bouquet_graph(1), 1)
    assert flow.chi == (F(1),)
    assert flow.norm == 1


def test_characteristic_flow_k4():
    g = complete_graph(4)
    flow = characteristic_flow(g, 1)
    assert flow.norm == 2
    values = sorted(abs(x) for x in flow.chi)
    assert values == [0, F(1, 2), F(1, 2), F(1, 2), F(1, 2), 1]


def test_characteristic_flow_cut_edge_rejected():
    with pytest.raises(InputError):
        characteristic_flow(path_graph(3), 1)


def test_characteristic_flow_reversal_negates():
    g = cycle_graph(4)
    fwd = characteristic_flow(g, 2, direction=1)
    rev = characteristic_flow(g, 2, direction=-1)
    assert all(a + b == 0 for a, b in zip(fwd.chi, rev.chi))
    assert fwd.norm == rev.norm


def test_characteristic_flow_keeps_its_own_potential():
    pot = {1: 0, 2: 1}
    flow = CharacteristicFlow(1, 1, (1, 1), pot, 2)
    pot[2] = 5
    assert flow.pot == {1: 0, 2: 1} and flow.pot is not pot
    assert flow == CharacteristicFlow(1, 1, (1, 1), {1: 0, 2: 1}, 2)
    assert repr(flow) == ("CharacteristicFlow(edge=1, direction=1, "
                          "num=(1, 1), pot={1: 0, 2: 1}, den=2)")
    with pytest.raises(AttributeError):
        flow.pot = {}


def test_potential_reproduces_flow():
    g = complete_graph(4)
    flow = characteristic_flow(g, 2)
    pot = flow.potential
    for eid, tail, head in g.edges:
        if eid == 2 or tail == head:
            continue
        assert flow.chi[g.position(eid)] == pot[head] - pot[tail]


def test_norm_identity():
    # <chi, chi> = kappa(X) / kappa(X minus e): n / 1 on an n-cycle, 16 / 8
    # on K4 and 1 / 1 on a loop
    cases = [(cycle_graph(2), 1, 2), (cycle_graph(3), 1, 3),
             (cycle_graph(5), 1, 5), (complete_graph(4), 3, 2),
             (bouquet_graph(2), 1, 1)]
    for g, eid, norm in cases:
        kappa = Fraction(complexity(g), complexity(g.delete([eid])))
        assert characteristic_flow(g, eid).norm == kappa == norm


@settings(max_examples=80, deadline=None)
@given(small_multigraphs())
def test_characteristic_flow_matches_the_rational_solve(g):
    """Every non-cut edge, both directions: chi is the per-edge rational
    solve, held in lowest terms over its denominator."""
    mat = [list(g.incidence_row(v)) for v in g.vertices]
    for eid in g.edge_ids:
        if reference_is_cut_edge(g, eid):
            continue
        for direction in (1, -1):
            flow = characteristic_flow(g, eid, direction)
            assert list(flow.chi) == min_norm_affine_rational(
                mat, g.position(eid), direction, g.num_edges)
            assert flow.den == lcm(*(x.denominator for x in flow.chi))
            assert flow.norm == sum(x * x for x in flow.chi)


def test_one_solve_serves_every_edge_and_chord(monkeypatch,
                                               fresh_projection):
    calls = []
    real = lattice_mod.min_norm_affine

    def spy(mat, ncols):
        calls.append(ncols)
        return real(mat, ncols)

    monkeypatch.setattr(lattice_mod, "min_norm_affine", spy)
    g = complete_graph(4)
    for eid in g.edge_ids:
        for direction in (1, -1):
            characteristic_flow(g, eid, direction)
    assert calls == [6]
    # the graph itself is cached, and each chord deleted downdates it
    system = coset_system(g, greedy=True)
    assert calls == [6]
    assert len(system.chords) == 3


def projection_matrix(proj):
    """den^-1 u of a projection ``(den, u)``, as ``Fraction`` rows."""
    den, u = proj
    return [[F(x, den) for x in row] for row in u]


def test_downdate_matches_a_fresh_solve_along_every_coset_system(
        fresh_projection):
    for g in [*connected_multigraphs(6), complete_graph(4),
              disjoint_union(cycle_graph(3), dipole_graph(3))]:
        proj = lattice_mod._projection(g)
        sub = g
        chords = coset_system(g, greedy=True).chords
        for c in (None, *chords):
            if c is not None:
                proj = lattice_mod._delete_from_projection(
                    proj, sub.position(c))
                sub = sub.delete([c])
            fresh = min_norm_affine(
                [sub.incidence_row(v) for v in sub.vertices], sub.num_edges)
            assert projection_matrix(proj) == projection_matrix(fresh), (
                g.edges, c)
        # the last chord deleted leaves a forest, whose flow space is zero
        assert not any(map(any, proj[1]))


def test_coset_system_flows_pass_the_flow_checks(monkeypatch,
                                                 fresh_projection):
    # the flows of chord-deleted subgraphs come from the downdate, not from
    # characteristic_flow, and still meet the potential checks
    g = complete_graph(4)
    monkeypatch.setattr(lattice_mod, "_integrate_potential",
                        lambda graph, eid, chi, base:
                        {v: 0 for v in graph.vertices})
    with pytest.raises(CheckError, match="potential norm"):
        coset_system(g, greedy=True)


def reference_coset_system(g, greedy):
    """Chords, indices and rescaled flows of a coset system, each flow by
    the per-edge rational solve in the current subgraph."""
    remaining = list(g.basic_flows())
    chords, indices, rescaled = [], [], []
    sub = g
    while remaining:
        mat = [list(sub.incidence_row(v)) for v in sub.vertices]
        best = None
        for c in remaining:
            chi = min_norm_affine_rational(mat, sub.position(c), 1,
                                           sub.num_edges)
            r = lcm(*(x.denominator for x in chi))
            if best is None or r < best[0]:
                best = (r, c, chi)
            if not greedy or r == 1:
                break
        r, c, chi = best
        remaining.remove(c)
        phi = [0] * g.num_edges
        for eid, x in zip(sub.edge_ids, chi):
            phi[g.position(eid)] = int(x * r)
        chords.append(c)
        indices.append(r)
        rescaled.append(tuple(phi))
        sub = sub.delete([c])
    return tuple(chords), tuple(indices), tuple(rescaled)


def test_coset_system_matches_the_rational_solve(corpus5, fig1_left,
                                                 fig1_right):
    for g in [fig1_left, fig1_right, *corpus5]:
        for greedy in (False, True):
            system = coset_system(g, greedy=greedy)
            assert (system.chords, system.indices, system.rescaled) == \
                reference_coset_system(g, greedy), g.edges


def test_lattice_examples():
    tri = lattice(cycle_graph(3))
    assert tri.gram == ((3,),)
    assert tri.determinant == 3
    two = lattice(dipole_graph(2))
    assert two.gram == ((2,),)
    assert two.determinant == 2
    empty = lattice(path_graph(4))
    assert empty.basis == ()
    assert empty.determinant == 1


def test_coset_system_examples():
    cn = coset_system(cycle_graph(4))
    assert cn.indices == (1,)
    assert cn.weights == (4,)
    assert cn.representatives == ((0, 0, 0, 0),)
    k4 = coset_system(complete_graph(4))
    assert k4.indices[0] == 2
    assert k4.weights[0] == 8
    assert len(k4.representatives) == 2 * k4.indices[1] * k4.indices[2]
    forest = coset_system(path_graph(4))
    assert forest.chords == ()
    assert forest.representatives == ((0, 0, 0),)
    for system in (cn, k4, forest):
        assert len(set(system.representatives)) == prod(system.indices)


def test_theta_cycle():
    expect = QSeries.from_dict({F(0): 1, F(3): 2, F(12): 2}, 12)
    assert theta_product(cycle_graph(3), 12) == expect
    assert theta_enumerate(cycle_graph(3), 12) == expect


def test_theta_double_edge():
    expect = QSeries.from_dict({F(0): 1, F(2): 2, F(8): 2}, 8)
    assert theta_product(dipole_graph(2), 8) == expect
    assert theta_enumerate(dipole_graph(2), 8) == expect


def test_theta_forest_is_one():
    assert theta_product(path_graph(4), 6) == qseries_one(6)
    assert theta_enumerate(path_graph(4), 6) == qseries_one(6)


def test_theta_zero_bound():
    assert theta_enumerate(complete_graph(4), 0) == qseries_one(0)


def test_k4_norm_three_flows():
    # the 8 triangle flows of K4: 4 triangles, 2 orientations each
    assert flows_of_norm(complete_graph(4), 3) == 8
    assert theta_enumerate(complete_graph(4), 3).coefficient(3) == 8


def test_flows_of_norm_basics():
    assert flows_of_norm(cycle_graph(3), 0) == 1
    assert flows_of_norm(cycle_graph(3), 3) == 2
    assert flows_of_norm(cycle_graph(3), 5) == 0


def test_compare_same_graph():
    g = cycle_graph(4)
    rep = codichromatic_compare(g, g, 12)
    assert rep["tutte_equal"]
    assert rep["theta_first_difference"] is None


def test_compare_different_tutte():
    rep = codichromatic_compare(cycle_graph(3), cycle_graph(4), 12)
    assert not rep["tutte_equal"]


def test_figure_pair(fig1_left, fig1_right):
    rep = codichromatic_compare(fig1_left, fig1_right, 12)
    assert rep["tutte_equal"]
    assert flows_of_norm(fig1_left, 7) == 20
    assert flows_of_norm(fig1_right, 7) == 22
    assert rep["theta_first_difference"] is not None


def test_coset_system_default_order_is_ascending(fig1_left):
    left = coset_system(fig1_left)
    assert left.chords == tuple(sorted(left.chords))
    assert left.indices == (59, 28, 9, 5, 1)
    assert len(left.representatives) == 74_340
    assert coset_system(complete_graph(4)).indices == (2, 3, 1)


def test_coset_system_greedy_order(fig1_left, fig1_right):
    left = coset_system(fig1_left, greedy=True)
    assert left.chords == (7, 6, 4, 9, 10)
    assert left.indices == (7, 18, 3, 5, 1)
    assert prod(left.indices) == len(left.representatives) == 1_890
    right = coset_system(fig1_right, greedy=True)
    assert prod(right.indices) == len(right.representatives) == 315
    for system in (left, right):
        assert len(set(system.representatives)) == prod(system.indices)


def test_theta_routes_agree_on_sample_graphs(graph_dir):
    paths = sorted(graph_dir.glob("*.g"))
    assert len(paths) == 6
    for path in paths:
        g = parse_graph(str(path))
        assert theta_product(g, 12) == theta_enumerate(g, 12), path.name


def test_theta_routes_agree_on_corpus(corpus5):
    for g in corpus5:
        assert theta_product(g, 12) == theta_enumerate(g, 12), g.edges


def test_theta_routes_agree_beyond_corpus_7():
    # K5 plus edges parallel to 1-3 and 2-4: 12 edges, 4,725 greedy
    # coset representatives
    g = build(complete_graph(5).edges + ((11, 1, 3), (12, 2, 4)))
    assert prod(coset_system(g, greedy=True).indices) == 4_725
    assert theta_product(g, 12) == theta_enumerate(g, 12)


def test_coset_representative_ceiling(monkeypatch, fig1_right):
    monkeypatch.setattr(errors, "MAX_COSET_REPRESENTATIVES", 100)
    with pytest.raises(CapacityError):
        coset_system(fig1_right, greedy=True)
    with pytest.raises(CapacityError):
        theta_product(fig1_right, 12)
    assert len(coset_system(complete_graph(4)).representatives) == 6


def test_coset_check_error_names_stage_and_graph(monkeypatch):
    g = complete_graph(4)
    monkeypatch.setattr(lattice_mod, "complexity", lambda graph: 1)
    with pytest.raises(CheckError, match="weight identity") as info:
        coset_system(g)
    assert str(list(g.edges)) in str(info.value)


def test_theta_check_error_names_stage_and_graph(monkeypatch):
    g = cycle_graph(3)
    monkeypatch.setattr(lattice_mod, "psi_series",
                        lambda alpha, w, bound: qseries_zero(bound))
    with pytest.raises(CheckError, match="constant term") as info:
        theta_product(g, 6)
    assert str(list(g.edges)) in str(info.value)


def test_triangularity_check_names_stage_and_graph(monkeypatch):
    g = complete_graph(4)
    real = coset_system

    def reversed_chords(graph, greedy=False):
        # the last basic flow is then that of the first chord taken, which
        # pairs to nonzero with the first rescaled flow, its own
        system = real(graph, greedy=greedy)
        return system._replace(chords=system.chords[::-1])

    monkeypatch.setattr(lattice_mod, "coset_system", reversed_chords)
    with pytest.raises(CheckError, match="triangularity") as info:
        theta_product(g, 6)
    assert str(list(g.edges)) in str(info.value)


def test_theta_enumerate_rejects_a_vector_above_the_bound(monkeypatch):
    g = cycle_graph(3)  # Gram matrix [[3]]
    monkeypatch.setattr(lattice_mod, "enumerate_by_norm",
                        lambda gram, bound: [(0,), (1,)])
    with pytest.raises(CheckError, match="enumeration bound") as info:
        theta_enumerate(g, 2)
    assert str(list(g.edges)) in str(info.value)
    assert "norm 3 > 2" in str(info.value)


def test_theta_enumerate_rechecks_the_cross_term(monkeypatch):
    # Gram [[2, 1], [1, 2]]: (1, 1) has norm 2 + 2 * 1 + 2 = 6, above the
    # bound 5, after (-1, 1) of norm 2 with another first coordinate and
    # the same rest
    g = dipole_graph(3)
    monkeypatch.setattr(lattice_mod, "enumerate_by_norm",
                        lambda gram, bound: [(0, 0), (-1, 1), (1, 1)])
    with pytest.raises(CheckError, match="enumeration bound") as info:
        theta_enumerate(g, 5)
    assert "vector (1, 1) has norm 6 > 5" in str(info.value)


def test_theta_enumerate_does_not_depend_on_the_vector_order(monkeypatch,
                                                             fig1_left):
    real = lattice_mod.enumerate_by_norm
    for g in (complete_graph(4), dipole_graph(3), fig1_left):
        gram = lattice(g).gram
        vectors = real([list(row) for row in gram], 9)
        norms = Counter(sum(x * y * gram[i][j]
                            for i, x in enumerate(v) for j, y in enumerate(v))
                        for v in vectors)
        expect = QSeries.from_dict(dict(norms), 9)
        assert theta_enumerate(g, 9) == expect
        shuffled = list(vectors)
        random.Random(7).shuffle(shuffled)
        monkeypatch.setattr(lattice_mod, "enumerate_by_norm",
                            lambda gram, bound: shuffled)
        assert theta_enumerate(g, 9) == expect
        monkeypatch.undo()


def test_potential_norm_check_names_stage_and_graph(monkeypatch):
    g = cycle_graph(3)
    monkeypatch.setattr(lattice_mod, "_integrate_potential",
                        lambda graph, eid, chi, base:
                        {v: F(0) for v in graph.vertices})
    with pytest.raises(CheckError, match="potential norm") as info:
        characteristic_flow(g, 1)
    assert str(list(g.edges)) in str(info.value)


@pytest.fixture
def fresh_projection():
    """An empty projection cache before and after the test, so that a
    patched solve is neither bypassed nor left behind for other tests."""
    lattice_mod._projection.cache_clear()
    yield
    lattice_mod._projection.cache_clear()


def test_potential_difference_check_names_stage_and_graph(monkeypatch,
                                                          fresh_projection):
    g = dipole_graph(3)
    # a vector that is no flow: the potential cannot fit both other edges
    monkeypatch.setattr(lattice_mod, "min_norm_affine",
                        lambda mat, ncols: (1, ((1, 0, 1),) * ncols))
    with pytest.raises(CheckError, match="potential difference") as info:
        characteristic_flow(g, g.edge_ids[0])
    assert str(list(g.edges)) in str(info.value)


def test_gram_determinant_check_names_stage_and_graph(monkeypatch):
    g = complete_graph(4)
    monkeypatch.setattr(lattice_mod, "complexity", lambda graph: 1)
    with pytest.raises(CheckError, match="Gram determinant") as info:
        lattice(g)
    assert str(list(g.edges)) in str(info.value)
    assert "!= forest count 1" in str(info.value)
