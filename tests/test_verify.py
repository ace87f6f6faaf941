import importlib

from flowalg.graph import bouquet_graph, complete_graph, dipole_graph
from flowalg.relations import RelationMatrix
from flowalg.verify import orientation_invariance

verify = importlib.import_module("flowalg.verify")


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
