import pytest

from flowalg.graph import (Graph, bouquet_graph, build, complete_graph,
                           cycle_graph, disjoint_union, path_graph)
from flowalg.tutte import (BiPoly, complexity, count_spanning_forests,
                           poincare, tutte, tutte_by_subsets)


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


def test_null_graph_conventions():
    null = Graph((), ())
    assert tutte(null) == BiPoly.one()
    assert poincare(null) == [1]
    assert complexity(null) == 1


def test_poincare_value_at_one_counts_spanning_subgraphs():
    # total dimension equals T(1, 2)
    for g in [complete_graph(4), cycle_graph(4), bouquet_graph(2)]:
        assert sum(poincare(g)) == tutte(g)(1, 2)


def test_subset_oracle_beyond_the_automatic_check():
    # 13 edges: tutte() no longer cross-checks, so compare here; the
    # oracle's packed size counts then need 14-bit digits
    g = build([(i, u, w) for i, (u, w) in enumerate(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4),
         (3, 5), (4, 5), (1, 2), (3, 3), (4, 5)], start=1)])
    assert g.num_edges == 13
    assert tutte_by_subsets(g) == tutte(g)
