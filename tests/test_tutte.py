from math import comb

import pytest
from hypothesis import example, given, settings

import flowalg.errors as errors
import flowalg.tutte as tutte_mod
from flowalg.corpus import connected_multigraphs
from flowalg.errors import CheckError
from flowalg.graph import (Graph, _components, bouquet_graph, build,
                           complete_graph, cycle_graph, dipole_graph,
                           disjoint_union, one_point_union, path_graph)
from flowalg.tutte import (BiPoly, complexity, count_spanning_forests,
                           poincare, tutte, tutte_by_subsets)

from conftest import bipoly_one, reference_forest_count, small_multigraphs


def test_tutte_base_cases():
    assert tutte(bouquet_graph(1)) == BiPoly({(0, 1): 1})   # loop -> y
    assert tutte(build([(1, 1, 2)])) == BiPoly({(1, 0): 1})  # bridge -> x
    assert tutte(cycle_graph(3)) == BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})


def test_tutte_matches_subset_oracle():
    for g in [complete_graph(4), cycle_graph(5), bouquet_graph(3),
              build([(1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 3, 3)])]:
        assert tutte(g) == tutte_by_subsets(g)


def test_tutte_disconnected_is_product():
    g = disjoint_union(cycle_graph(3), bouquet_graph(2))
    assert tutte(g) == tutte(cycle_graph(3)) * tutte(bouquet_graph(2))


def test_poincare_k4():
    assert poincare(complete_graph(4)) == [1, 3, 6, 10, 11, 6, 1]


def test_poincare_forest_is_one():
    assert poincare(path_graph(5)) == [1]
    assert poincare(Graph((1,), ())) == [1]


def test_poincare_cycles():
    for n in range(2, 7):
        assert poincare(cycle_graph(n)) == [1] * (n + 1)


def test_complexity():
    assert complexity(path_graph(4)) == 1
    for n in range(2, 7):
        assert complexity(cycle_graph(n)) == n
    assert complexity(complete_graph(4)) == 16
    assert complexity(bouquet_graph(3)) == 1  # loops never enter forests


def test_complexity_matches_direct_count():
    for g in [complete_graph(4), cycle_graph(4), bouquet_graph(2),
              disjoint_union(cycle_graph(3), path_graph(2))]:
        assert complexity(g) == count_spanning_forests(g)


@pytest.mark.parametrize("g", [
    Graph((), ()),                                        # the null graph
    Graph((1, 2, 3), ()),                                 # isolated vertices
    bouquet_graph(3),                                     # loops only
    disjoint_union(complete_graph(4), dipole_graph(3)),   # two components
    build([(1, 1, 2), (2, 2, 2), (3, 2, 3), (4, 3, 1), (5, 1, 2)],
          isolated=[4]),
])
def test_matrix_tree_count_matches_enumeration(g):
    assert count_spanning_forests(g) == reference_forest_count(g)


def test_matrix_tree_count_matches_enumeration_on_corpus_6():
    graphs = connected_multigraphs(6)
    assert [count_spanning_forests(g) for g in graphs] == [
        reference_forest_count(g) for g in graphs]


def test_null_graph_conventions():
    null = Graph((), ())
    assert tutte(null) == bipoly_one()
    assert poincare(null) == [1]
    assert complexity(null) == 1


def test_poincare_value_at_one_counts_spanning_subgraphs():
    # total dimension equals T(1, 2)
    for g in [complete_graph(4), cycle_graph(4), bouquet_graph(2)]:
        assert sum(poincare(g)) == tutte(g)(1, 2)


def test_subset_oracle_beyond_the_automatic_check():
    # 13 edges: tutte() no longer cross-checks, so compare here; the
    # oracle's packed subset counts then need 14-bit digits
    g = build([(i, u, w) for i, (u, w) in enumerate(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4),
         (3, 5), (4, 5), (1, 2), (3, 3), (4, 5)], start=1)])
    assert g.num_edges == 13
    assert tutte_by_subsets(g) == tutte(g)


def tutte_by_definition(g):
    """The corank-nullity sum over all 2^m edge subsets, one at a time."""
    n, m = g.num_vertices, g.num_edges
    r_full = n - g.num_components
    out = {}
    for mask in range(1 << m):
        subset = [(t, h) for k, (_, t, h) in enumerate(g.edges)
                  if mask >> k & 1]
        r_s = n - _components(g.vertices, subset)[0]
        a, b = r_full - r_s, len(subset) - r_s
        for i in range(a + 1):
            for j in range(b + 1):
                term = (-1) ** (a - i + b - j) * comb(a, i) * comb(b, j)
                out[(i, j)] = out.get((i, j), 0) + term
    return BiPoly(out)


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
@example(Graph((), ()))
@example(bouquet_graph(1))
@example(disjoint_union(cycle_graph(3), dipole_graph(2)))
# vertex 1's only edge comes first; vertices 4 and 5 are gone before 2 and 3
@example(build([(1, 1, 2), (2, 4, 5), (3, 2, 4), (4, 5, 3), (5, 3, 2),
                (6, 2, 2)], isolated=[6]))
def test_subset_oracle_matches_definition(g):
    assert tutte_by_subsets(g) == tutte_by_definition(g)


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
# two triangles glued at a vertex
@example(one_point_union(cycle_graph(3), 1, cycle_graph(3), 1))
# a digon with a pendant bridge and a loop
@example(build([(1, 1, 2), (2, 2, 1), (3, 2, 3), (4, 3, 3)]))
# two cycles joined by a bridge
@example(build([(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4), (5, 4, 5),
                (6, 5, 6), (7, 6, 4)]))
# a disjoint union with an isolated vertex
@example(build([(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 5, 6), (5, 6, 5)],
               isolated=[4]))
def test_block_recursion_matches_definition(g):
    tutte_mod.clear_cache()
    assert tutte(g) == tutte_by_definition(g)


def test_block_recursion_on_twenty_edges():
    # C10 plus the ten chords i -> i + 3: 2-connected, 20 edges
    g = build([(i, i, i % 10 + 1) for i in range(1, 11)]
              + [(10 + i, i, (i + 2) % 10 + 1) for i in range(1, 11)])
    tutte_mod.clear_cache()
    assert tutte(g) == tutte_by_subsets(g)


def test_oracles_run_once_per_distinct_graph(monkeypatch):
    calls = {"subsets": 0, "forests": 0}

    def counted(name, oracle):
        def run(g):
            calls[name] += 1
            return oracle(g)
        return run

    monkeypatch.setattr(tutte_mod, "tutte_by_subsets",
                        counted("subsets", tutte_by_subsets))
    monkeypatch.setattr(tutte_mod, "count_spanning_forests",
                        counted("forests", count_spanning_forests))
    g = build([(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 1, 3), (5, 2, 2)])
    # the same graph up to orientation, and up to a relabeling of its edges
    # and vertices (with an isolated vertex added)
    copies = [g, g.reorient([1, 4]),
              build([(7 * e, 10 * t, 10 * h) for e, t, h in g.edges],
                    isolated=[99])]
    tutte_mod.clear_cache()
    for copy in copies:
        assert tutte(copy) == tutte(g)
        assert complexity(copy) == 5
    assert calls == {"subsets": 1, "forests": 1}
    tutte_mod.clear_cache()
    tutte(g)
    complexity(g)
    assert calls == {"subsets": 2, "forests": 2}


def test_oracles_check_graphs_up_to_the_capacity_ceiling(monkeypatch):
    # K5 plus edges parallel to 1-3, 2-4 and 3-5: 13 edges
    g = build(complete_graph(5).edges + ((11, 1, 3), (12, 2, 4), (13, 3, 5)))
    key = tutte_mod._normal_form(g)
    tutte_mod.clear_cache()
    tutte(g)
    complexity(g)
    assert tutte_mod._verified == {"subset sum": {key}, "forest count": {key}}
    # the ceiling is read when the check runs, and gates only the subset
    # sum: the forest count is checked at every size
    monkeypatch.setattr(errors, "MAX_SUBSET_EDGES", 12)
    tutte_mod.clear_cache()
    tutte(g)
    complexity(g)
    assert tutte_mod._verified == {"subset sum": set(), "forest count": {key}}


def test_complexity_is_checked_above_the_capacity_ceiling(monkeypatch):
    # C11 plus the eleven chords i -> i + 3: 22 edges
    g = build([(i, i, i % 11 + 1) for i in range(1, 12)]
              + [(11 + i, i, (i + 2) % 11 + 1) for i in range(1, 12)])
    assert g.num_edges > errors.MAX_SUBSET_EDGES
    key = tutte_mod._normal_form(g)
    tutte_mod.clear_cache()
    assert complexity(g) == count_spanning_forests(g)
    assert tutte_mod._verified["forest count"] == {key}
    real = tutte_mod._tutte_rec

    def off_by_one(graph, graph_key):
        t = real(graph, graph_key)
        return t + bipoly_one() if graph.num_edges > 20 else t

    monkeypatch.setattr(tutte_mod, "_tutte_rec", off_by_one)
    tutte_mod.clear_cache()
    try:
        with pytest.raises(CheckError, match="forest count"):
            complexity(g)
    finally:
        tutte_mod.clear_cache()


def _decoded(key):
    """(n, codes) read back from a memo key."""
    if key[0] <= 16:
        return key[0], list(key[1:])
    width = key[0] - 16
    words = [int.from_bytes(key[i:i + width], "big")
             for i in range(1, len(key), width)]
    return words[0], words[1:]


def test_key_ignores_labels_and_orientation():
    g = build([(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 1, 3), (5, 2, 2)])
    key = tutte_mod._normal_form(g)
    assert isinstance(key, bytes)
    # vertices and edges relabeled in order, the edges listed backwards,
    # and an isolated vertex added
    relabeled = build([(7 * e, 10 * t, 10 * h) for e, t, h in g.edges[::-1]],
                      isolated=[99])
    assert tutte_mod._normal_form(relabeled) == key
    assert tutte_mod._normal_form(g.reorient([1, 4])) == key
    # one edge's endpoints moved: 1-3 becomes 1-2
    moved = build([(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 1, 2), (5, 2, 2)])
    assert tutte_mod._normal_form(moved) != key
    assert _decoded(key) == (3, sorted([1, 5, 2, 2, 4]))


@pytest.mark.parametrize("g, dims", [
    (path_graph(21), [1]),           # 20 edges, codes up to 419
    (cycle_graph(17), [1] * 18),     # codes up to 15 * 17 + 16 = 271
])
def test_keys_past_one_byte_are_exact(g, dims):
    key = tutte_mod._normal_form(g)
    n = g.num_vertices
    index = {v: i for i, v in enumerate(sorted(g.vertices))}
    codes = sorted(min(index[t], index[h]) * n + max(index[t], index[h])
                   for _, t, h in g.edges)
    assert max(codes) > 255
    assert _decoded(key) == (n, codes)
    tutte_mod.clear_cache()
    assert tutte(g) == tutte_by_subsets(g)
    assert poincare(g) == dims
    assert complexity(g) == count_spanning_forests(g)
    assert tutte_mod._verified == {"subset sum": {key}, "forest count": {key}}


def test_memo_entries_share_their_keys():
    # K5 plus edges parallel to 1-3, 2-4 and 3-5: 13 edges
    g = build(complete_graph(5).edges + ((11, 1, 3), (12, 2, 4), (13, 3, 5)))
    tutte_mod.clear_cache()
    tutte(g)
    complexity(g)
    key = tutte_mod._normal_form(g)
    assert tutte_mod._normal_form(g) is key
    [stored] = [k for k in tutte_mod._memo if k == key]
    assert stored is key
    for check in ("subset sum", "forest count"):
        [recorded] = tutte_mod._verified[check]
        assert recorded is key
    # every stored polynomial holds the one shared tuple per (i, j)
    terms = [k for t in tutte_mod._memo.values() for k in t.coeffs]
    assert len(terms) > len(set(terms))
    assert all(k is tutte_mod._exponents[k] for k in terms)


def test_a_disagreement_is_never_recorded(monkeypatch):
    g = complete_graph(4)
    tutte_mod.clear_cache()
    monkeypatch.setattr(tutte_mod, "_tutte_rec",
                        lambda graph, key: bipoly_one())
    for _ in range(2):
        with pytest.raises(CheckError, match="subset sum") as info:
            tutte(g)
        assert str(list(g.edges)) in str(info.value)
        assert repr(tutte_by_subsets(g)) in str(info.value)
        with pytest.raises(CheckError, match="forest count") as info:
            complexity(g)
        assert str(list(g.edges)) in str(info.value)
        assert "gives 1, the oracle gives 16" in str(info.value)


def test_poincare_shape_errors_name_stage_graph_and_values(monkeypatch):
    g = cycle_graph(3)
    monkeypatch.setattr(tutte_mod, "tutte", lambda graph: BiPoly({(3, 0): 1}))
    with pytest.raises(CheckError, match="Poincare degree") as info:
        poincare(g)
    assert str(list(g.edges)) in str(info.value)
    assert "x^3 y^0 exceeds the graph rank 2" in str(info.value)
    monkeypatch.setattr(tutte_mod, "tutte",
                        lambda graph: BiPoly({(2, 0): 1, (1, 0): -2}))
    with pytest.raises(CheckError, match="Poincare shape") as info:
        poincare(g)
    assert str(list(g.edges)) in str(info.value)
    assert "[1, -2]" in str(info.value)
