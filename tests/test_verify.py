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
    # must fail the certificate and then the exact fallback: the reference
    # graph's pivot rows only choose which rows to test.
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


def test_pivot_rows_mod_p_pick_a_row_basis():
    from flowalg.linalg import rank

    mat = [[1, -1, 0, 0], [2, -2, 0, 0], [0, 1, -1, 0], [1, 0, -1, 0],
           [0, 0, 0, 3]]
    rows = [list(enumerate(r)) for r in mat]
    chosen = verify._pivot_rows_mod_p(rows)
    assert chosen == [0, 2, 4]
    assert rank([mat[i] for i in chosen]) == rank(mat) == 3
