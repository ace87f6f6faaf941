import pytest
from hypothesis import example, given, settings

from flowalg.errors import InputError
from flowalg.graph import (Graph, _components, bouquet_graph, build,
                           complete_graph, cycle_graph, dipole_graph,
                           disjoint_union, one_point_union, path_graph)

from conftest import reference_is_cut_edge, small_multigraphs


def test_validation_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph((1, 2), ((1, 1, 3),))
    with pytest.raises(InputError):
        Graph((1, 2), ((1, 1, 2), (1, 2, 1)))


def test_graph_is_an_immutable_value():
    g = cycle_graph(3)
    # a copy built through the checks, and one derived by an operation
    copies = [Graph(g.vertices, g.edges), g.reorient([2]).reorient([2])]
    assert g.edge_ids == (1, 2, 3)  # a value cached on g alone changes nothing
    for h in copies:
        assert h == g and hash(h) == hash(g) and h is not g
    assert {g, *copies} == {g}
    assert g != g.reorient([2]) and g != (g.vertices, g.edges)
    assert repr(Graph((1, 2), ((5, 1, 2),))) == (
        "Graph(vertices=(1, 2), edges=((5, 1, 2),))")
    with pytest.raises(AttributeError):
        g.vertices = (1,)
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(AttributeError):
        del g.edges
    assert g.vertices == (1, 2, 3) and not hasattr(g, "extra")


def test_contract_triangle_edge():
    image = cycle_graph(3).contract([1])
    # vertices 1 and 2 merge into vertex 1, the least id of the pair
    assert image.vertices == (1, 3)
    assert image.num_edges == 2
    ids = {e[0] for e in image.edges}
    assert ids == {2, 3}
    # both survivors join the merged vertex to vertex 3
    endpoints = [{t, h} for _, t, h in image.edges]
    assert endpoints == [{1, 3}, {1, 3}]


def test_contract_loop():
    image = bouquet_graph(1).contract([1])
    assert image.num_vertices == 1
    assert image.num_edges == 0


def test_contract_k4_edge():
    g = complete_graph(4).contract([1])
    assert g.num_vertices == 3
    assert g.num_edges == 5
    pairs = sorted(tuple(sorted((t, h))) for _, t, h in g.edges)
    # edges 2,3 and 4,5 become parallel pairs on the merged vertex
    assert pairs.count((1, 3)) == 2
    assert pairs.count((1, 4)) == 2


def test_contract_order_independent():
    g = complete_graph(4)
    combined = g.contract([1, 6])
    stepwise = g.contract([1]).contract([6])
    assert combined == stepwise


def test_delete():
    g = cycle_graph(3)
    assert g.delete([1]).num_edges == 2
    assert g.delete([1]).num_vertices == 3
    assert g.delete([]) == g
    assert complete_graph(4).delete([3]).num_edges == 5
    with pytest.raises(InputError):
        g.delete([99])


def test_components():
    two = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert two.components()[0] == 2
    assert Graph((), ()).components() == (0, {})
    assert complete_graph(4).components()[0] == 1


def test_cut_edges():
    path = path_graph(3)
    assert path.is_cut_edge(1)
    assert not cycle_graph(4).is_cut_edge(2)
    assert not bouquet_graph(1).is_cut_edge(1)
    with pytest.raises(InputError):
        path.is_cut_edge(99)


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
@example(dipole_graph(2))
@example(one_point_union(cycle_graph(3), 1, dipole_graph(2), 1))
@example(build([(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4), (5, 4, 5),
                (6, 5, 6), (7, 6, 4), (8, 6, 6)], isolated=[7]))
def test_blocks_and_bridges(g):
    bridges, blocks = g.blocks
    assert g.cut_edges == set(bridges) == {
        eid for eid in g.edge_ids if reference_is_cut_edge(g, eid)}
    # bridges and blocks partition the non-loop edges
    assert sorted([*bridges, *(eid for b in blocks for eid in b)]) == sorted(
        eid for eid, t, h in g.edges if t != h)
    ends = [{v for eid in b for v in g.edge(eid)[1:]} for b in blocks]
    for block, verts in zip(blocks, ends):
        assert len(block) >= 2
        # no cut vertex: the block stays connected without any one vertex
        for v in verts:
            rest = [(t, h) for _, t, h in map(g.edge, block) if v not in (t, h)]
            assert _components(verts - {v}, rest)[0] == 1
    # maximal: two blocks share at most one vertex
    for i, a in enumerate(ends):
        for b in ends[i + 1:]:
            assert len(a & b) <= 1


def test_maximal_forest():
    tree = path_graph(4)
    assert tree.maximal_forest() == {1, 2, 3}
    assert cycle_graph(3).maximal_forest() == {1, 2}
    assert bouquet_graph(1).maximal_forest() == frozenset()
    forest = disjoint_union(cycle_graph(3), cycle_graph(4)).maximal_forest()
    assert len(forest) == 7 - 2  # |V| - k


def test_basic_flow_triangle():
    g = cycle_graph(3)
    flow = g.basic_flows()[3]
    assert flow[g.position(3)] == 1
    assert set(flow) <= {-1, 0, 1}
    assert all(v != 0 for v in flow)
    for v in g.vertices:
        row = g.incidence_row(v)
        assert sum(a * b for a, b in zip(row, flow)) == 0


def test_basic_flow_loop():
    g = build([(1, 1, 2), (2, 2, 2)])
    assert g.basic_flows()[2] == (0, 1)


def test_basic_flow_theta_graph():
    g = dipole_graph(3)
    flow = g.basic_flows()[2]
    assert flow[g.position(2)] == 1
    assert flow[g.position(1)] == -1
    assert flow[g.position(3)] == 0


def test_girth():
    assert complete_graph(4).girth() == 3
    assert build([(1, 1, 2), (2, 2, 2)]).girth() == 1
    assert path_graph(5).girth() is None
    assert dipole_graph(2).girth() == 2


def test_incidence_rows():
    g = build([(1, 1, 2)])
    assert g.incidence_row(2) == (1,)
    assert g.incidence_row(1) == (-1,)
    loop = bouquet_graph(1)
    assert loop.incidence_row(1) == (0,)
    k4 = complete_graph(4)
    total = [0] * k4.num_edges
    for v in k4.vertices:
        total = [a + b for a, b in zip(total, k4.incidence_row(v))]
    assert all(x == 0 for x in total)
    with pytest.raises(InputError):
        k4.incidence_row(99)


def test_reorient():
    g = cycle_graph(3).reorient([2])
    assert g.edge(2) == (2, 3, 2)
    assert g.edge(1) == (1, 1, 2)


def test_one_point_union_shares_one_vertex():
    merged = one_point_union(cycle_graph(3), 1, cycle_graph(3), 2)
    assert merged.num_vertices == 5
    assert merged.num_edges == 6
    assert merged.components()[0] == 1
