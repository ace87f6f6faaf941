import importlib

from flowalg.graph import (Graph, bouquet_graph, complete_graph,
                           dipole_graph)
from flowalg.relations import RelationMatrix, relation_matrix
from flowalg.verify import _is_signed_copy, orientation_invariance

verify = importlib.import_module("flowalg.verify")

# a parallel pair, a loop and a triangle
MIXED = Graph((1, 2, 3), ((1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 3, 1),
                          (5, 3, 3)))


def test_signed_copy_rejects_one_wrong_sign():
    flip_mask = 0b01010
    g2 = MIXED.reorient(MIXED.ids_of(flip_mask))
    for j in range(1, MIXED.num_edges):
        ref = relation_matrix(MIXED, j)
        rel = relation_matrix(g2, j)
        i = next(i for i, row in enumerate(rel.rows) if row)
        (c, v), *rest = rel.rows[i]
        bad_rows = rel.rows[:i] + (((c, -v), *rest),) + rel.rows[i + 1:]
        bad = RelationMatrix(rel.degree, rel.basis, bad_rows, rel.row_labels)
        assert _is_signed_copy(rel, ref, flip_mask)
        assert not _is_signed_copy(bad, ref, flip_mask)


def test_signed_copy_rejects_swapped_row_labels():
    flip_mask = 0b00110
    g2 = MIXED.reorient(MIXED.ids_of(flip_mask))
    for j in range(1, MIXED.num_edges + 1):
        ref = relation_matrix(MIXED, j)
        rel = relation_matrix(g2, j)
        labels = list(rel.row_labels)
        labels[0], labels[-1] = labels[-1], labels[0]
        bad = RelationMatrix(rel.degree, rel.basis, rel.rows, tuple(labels))
        assert _is_signed_copy(rel, ref, flip_mask)
        assert not _is_signed_copy(bad, ref, flip_mask)


def test_orientation_invariance_holds_on_small_graphs():
    for g in (complete_graph(4), dipole_graph(3), bouquet_graph(2)):
        assert orientation_invariance(g, trials=12, seed=5)


def test_orientation_invariance_rejects_a_rank_change(monkeypatch):
    # A pipeline that loses the degree-2 relations on every re-oriented copy
    # is no signed copy of the reference matrix, so the exact fallback ranks
    # it and must find the rank change.
    g = complete_graph(4)
    real = verify.relation_matrix

    def lossy(h, j):
        rel = real(h, j)
        if h.edges == g.edges or j != 2:
            return rel
        return RelationMatrix(rel.degree, rel.basis,
                              tuple(() for _ in rel.rows), rel.row_labels)

    monkeypatch.setattr(verify, "relation_matrix", lossy)
    assert not orientation_invariance(g, trials=5, seed=1)


def test_orientation_invariance_ranks_other_forms_exactly(monkeypatch):
    # Doubling a row keeps the rank but breaks the signed-copy form, so each
    # re-oriented copy must pass through exact elimination.
    g = complete_graph(4)
    real = verify.relation_matrix
    real_rank = verify.rank_int_rows
    ranked = []

    def doubled(h, j):
        rel = real(h, j)
        if h.edges == g.edges or not rel.rows:
            return rel
        return RelationMatrix(rel.degree, rel.basis, rel.rows + rel.rows[:1],
                              rel.row_labels + rel.row_labels[:1])

    def spy(rows, ncols):
        ranked.append(ncols)
        return real_rank(rows, ncols)

    monkeypatch.setattr(verify, "relation_matrix", doubled)
    monkeypatch.setattr(verify, "rank_int_rows", spy)
    assert orientation_invariance(g, trials=5, seed=1)
    assert ranked
