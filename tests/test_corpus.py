"""The corpus generator and its canonical form, against the brute-force
reference key and generator of ``conftest``."""

from collections import Counter
from itertools import permutations

from hypothesis import given, settings, strategies as st

from conftest import reference_key, reference_multigraphs
from flowalg.corpus import canonical_key, connected_multigraphs
from flowalg.graph import (Graph, bouquet_graph, build, cycle_graph,
                           dipole_graph, one_point_union)


def star_graph(leaves):
    return build([(i, 1, i + 1) for i in range(1, leaves + 1)], isolated=[1])


FAMILIES = {"cycle": cycle_graph, "star": star_graph,
            "bouquet": bouquet_graph, "dipole": dipole_graph}


@st.composite
def small_graphs(draw):
    """A cycle, star, bouquet or dipole, one of those glued at a vertex to
    another, or a random multigraph on at most 5 vertices; at most 8 vertices
    and 7 edges, so the reference key stays fast."""
    kind = draw(st.sampled_from(["family", "glued", "random"]))
    if kind == "random":
        ends = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                             min_size=1, max_size=7))
        return build([(i, t, h) for i, (t, h) in enumerate(ends, start=1)])
    family = st.sampled_from(sorted(FAMILIES))
    size = draw(st.integers(1, 4 if kind == "glued" else 6))
    g = FAMILIES[draw(family)](size)
    if kind == "glued":
        h = FAMILIES[draw(family)](draw(st.integers(1, 3)))
        g = one_point_union(g, draw(st.sampled_from(g.vertices)),
                            h, draw(st.sampled_from(h.vertices)))
    return g


@st.composite
def relabelled(draw, g):
    """An isomorphic copy: vertices renamed, edges renumbered, reordered and
    some reversed."""
    names = draw(st.permutations(range(10, 10 + g.num_vertices)))
    vmap = dict(zip(g.vertices, names))
    ids = draw(st.permutations(range(50, 50 + g.num_edges)))
    flips = draw(st.lists(st.booleans(), min_size=g.num_edges,
                          max_size=g.num_edges))
    edges = [(eid, vmap[h], vmap[t]) if flip else (eid, vmap[t], vmap[h])
             for eid, (_, t, h), flip in zip(ids, g.edges, flips)]
    edges = draw(st.permutations(edges))
    return Graph(tuple(sorted(names)), tuple(edges))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_key_is_an_isomorphism_invariant(data):
    g = data.draw(small_graphs())
    copy = data.draw(relabelled(g))
    assert canonical_key(copy) == canonical_key(g)
    other = data.draw(st.one_of(small_graphs(), relabelled(g)))
    assert ((canonical_key(other) == canonical_key(g))
            == (reference_key(other) == reference_key(g)))


def hexagon_with_doubled_chords(chords):
    ring = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]
    ends = ring + [pair for pair in chords for _ in range(2)]
    return build([(i, t, h) for i, (t, h) in enumerate(ends, start=1)])


def test_canonical_key_where_refinement_is_coarser_than_the_orbits():
    # Every vertex has one neighbour at multiplicity 2 and two at 1, so
    # refinement keeps all six in one cell; with one long and two short
    # doubled chords, the ends of the long one are not exchanged with the
    # others by any automorphism, and a search that tried one vertex per
    # cell would depend on the labels.
    g = hexagon_with_doubled_chords([(1, 4), (2, 6), (3, 5)])
    key = canonical_key(g)
    for names in permutations(g.vertices):
        vmap = dict(zip(g.vertices, names))
        copy = Graph(g.vertices,
                     tuple((eid, vmap[t], vmap[h]) for eid, t, h in g.edges))
        assert canonical_key(copy) == key
    long_only = hexagon_with_doubled_chords([(1, 4), (2, 5), (3, 6)])
    assert reference_key(long_only) != reference_key(g)
    assert canonical_key(long_only) != key


def test_canonical_key_on_large_symmetric_graphs():
    # the brute-force key would try 12! orders on each of these
    for g in (star_graph(12), cycle_graph(12), bouquet_graph(12),
              dipole_graph(12)):
        key = canonical_key(g)
        assert key[0] == g.num_vertices
        assert sorted(key[1]) == list(key[1]) and len(key[1]) == 12
        flipped = Graph(g.vertices, tuple((eid, h, t) for eid, t, h
                                          in reversed(g.edges)))
        assert canonical_key(flipped) == key
    assert canonical_key(cycle_graph(12)) != canonical_key(
        one_point_union(cycle_graph(6), 1, cycle_graph(6), 1))


def test_corpus_7_matches_reference_generator(corpus7):
    reference = reference_multigraphs(7)
    assert len(corpus7) == len(reference) == 1682
    for g, ref in zip(corpus7, reference):
        assert (g.vertices, g.edges) == (ref.vertices, ref.edges)


def test_corpus_level_counts():
    graphs = connected_multigraphs(8)
    levels = Counter(g.num_edges for g in graphs)
    assert [levels[m] for m in range(9)] == [1, 2, 4, 11, 30, 95, 328, 1211,
                                             4779]
    assert len(graphs) == 6461
    assert len({canonical_key(g) for g in graphs}) == 6461
