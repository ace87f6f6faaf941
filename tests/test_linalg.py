from fractions import Fraction
from itertools import combinations, product
from math import floor, gcd, isqrt

import pytest
from hypothesis import event, example, given, settings, strategies as st

import flowalg.linalg as linalg_mod
from flowalg.cli import parse_graph
from flowalg.corpus import connected_multigraphs
from flowalg.errors import InputError
from flowalg.graph import build, complete_graph, cycle_graph
from flowalg.relations import relation_matrix
from flowalg.linalg import (det_int, enumerate_by_norm, hermite_rows,
                            integer_kernel_basis, min_norm_affine,
                            rank_int_rows, smith_normal_form)

from conftest import (dense, min_norm_affine_rational, reference_hermite_rows,
                      rref, sparse, to_dense)

F = Fraction


def triangle_incidence():
    g = cycle_graph(3)
    return [list(g.incidence_row(v)) for v in g.vertices]


def test_smith_normal_form_examples():
    assert smith_normal_form(sparse([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(sparse([[1, 0], [0, 1]])) == [1, 1]
    assert smith_normal_form(sparse([[0, 0], [0, 0]])) == []
    assert smith_normal_form(sparse([])) == []
    # Hermite forms that are not diagonal and have a pivot above 1 take a
    # second pass, on the transpose; the pivots of the first one are not
    # the factors of [[2, 1], [0, 2]]
    assert smith_normal_form(sparse([[2, 2], [0, 4]])) == [2, 4]
    assert smith_normal_form(sparse([[2, 1], [0, 2]])) == [1, 4]
    # unit pivots: every factor is 1 without a second pass
    assert smith_normal_form(sparse([[1, 1]])) == [1]
    # six-digit entries, repeated and zero rows: the entries must not grow
    # without bound on the way (factors checked against the minors)
    assert smith_normal_form(sparse([
        [0, -863009, 0, -644126, 128705, 591982],
        [0, 863009, 0, 644126, -128705, -591982],
        [0, 863009, 0, 644126, -128705, -591982],
        [0, 0, 0, 0, 0, 0],
        [-917923, -202600, 0, 0, 0, 290138],
        [0, 154009, -828572, 0, -380182, 940006],
        [0, 0, 0, 0, 0, 0],
        [-904052, 0, 405955, -132756, 856105, 0]])) == [1, 1, 1, 1]


@st.composite
def _small_int_matrices(draw):
    """Integer matrices of up to 4 x 5 with entries up to 30 in size,
    mixing random rows with zero rows and repeated rows."""
    ncols = draw(st.integers(1, 5))
    mat = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "zero":
            mat.append([0] * ncols)
        elif kind == "repeat" and mat:
            mat.append(list(draw(st.sampled_from(mat))))
        else:
            mat.append(draw(st.lists(st.integers(-30, 30),
                                     min_size=ncols, max_size=ncols)))
    return mat


def determinantal_factors(mat):
    """Invariant factors d_k = D_k / D_(k-1), with D_k the gcd of all k x k
    minors (each a ``det_int``), for k up to the rank."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        dk = gcd(*(det_int([[mat[i][j] for j in cols] for i in rows])
                   for rows in combinations(range(nr), k)
                   for cols in combinations(range(nc), k)))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return factors


@settings(max_examples=300, deadline=None)
@given(_small_int_matrices())
@example([[2, 2], [0, 4]])
@example([[0, 0, 0], [6, 4, 0], [6, 4, 0]])
def test_smith_matches_determinantal_divisors(mat):
    assert smith_normal_form(sparse(mat)) == determinantal_factors(mat)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
    max_size=4)))
@example([[2, 0], [0, 1]])
@example([[1, 1], [1, -1]])
def test_unit_pivot_exit_matches_determinantal_divisors(mat):
    # small entries make unit triangular pivots common, so this is where
    # the exit could report "free" for a matrix with a factor above 1
    assert smith_normal_form(sparse(mat)) == determinantal_factors(mat)


def test_torsion_goes_through_the_normalisation(monkeypatch):
    normalised = []
    real = linalg_mod._normalise

    def spy(pivots):
        normalised.append(sorted(pivots))
        return real(pivots)

    monkeypatch.setattr(linalg_mod, "_normalise", spy)
    # unit pivots: every factor is 1, and nothing is normalised
    assert smith_normal_form(sparse([[1, 2], [0, -1]])) == [1, 1]
    assert normalised == []
    # the pivot 2 is no certificate: the form is normalised, and it is
    # diagonal, so the factors are read from it
    assert smith_normal_form(sparse([[2, 0], [0, 1]])) == [1, 2]
    assert normalised == [[0, 1]]


def test_smith_factors_divisibility_chain():
    factors = smith_normal_form(sparse([[4, 2, 8], [2, 8, 6], [10, 2, 0]]))
    assert factors == [2, 2, 134]
    for i in range(len(factors) - 1):
        assert factors[i + 1] % factors[i] == 0


def test_snf_factor_count_is_rank():
    mats = [
        [[2, 4], [1, 2]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[6, 0], [0, 10], [0, 0]],
    ]
    for m in mats:
        rows = sparse(m)
        assert len(smith_normal_form(rows)) == rank_int_rows(rows)


def test_integer_kernel_basis():
    mat = sparse([[1, 1, 1], [0, 0, 0]])
    basis = to_dense(integer_kernel_basis(mat, range(3)), range(3))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    # Hermite form is deterministic
    again = to_dense(integer_kernel_basis(mat, range(3)), range(3))
    assert basis == again


def test_hermite_rows_normalizes():
    rows = to_dense(hermite_rows(sparse([[2, 4], [0, 6]])), range(2))
    assert rows == [[2, 4], [0, 6]]
    rows = to_dense(hermite_rows(sparse([[0, 3], [2, 1]])), range(2))
    assert rows[0][0] > 0
    assert 0 <= rows[0][1] < rows[1][1] or rows[1][1] == 0 or rows[0][1] == 0
    # any integer matrix: rank-deficient rows reduce to zero and are dropped
    assert to_dense(hermite_rows(sparse([[2, 4], [1, 2], [0, 0]])),
                    range(2)) == [[1, 2]]


@settings(max_examples=300, deadline=None)
@given(_small_int_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[4, 6], [6, 9], [0, 0]])
@example([[6, 4, 0], [0, 0, 0], [9, 6, 5], [6, 4, 0]])
@example([[0, 3, 2], [0, 5, -7], [2, 1, 1]])
def test_hermite_rows_matches_dense_reference(mat):
    """Zero rows, repeated rows and pivots that do not divide the entries
    below them, on the matrix and on its transpose."""
    ncols = len(mat[0]) if mat else 0
    assert (to_dense(hermite_rows(sparse(mat)), range(ncols))
            == reference_hermite_rows(mat))
    cols = [list(col) for col in zip(*mat)]
    assert (to_dense(hermite_rows(sparse(cols)), range(len(mat)))
            == reference_hermite_rows(cols))


@settings(max_examples=200, deadline=None)
@given(_small_int_matrices(), st.data())
def test_increasing_column_relabel(mat, data):
    """Columns may be any integers, such as subset masks: a strictly
    increasing relabelling relabels the Hermite form the same way and
    keeps the Smith factors."""
    ncols = len(mat[0]) if mat else 0
    labels = sorted(data.draw(st.sets(st.integers(-50, 2**20),
                                      min_size=ncols, max_size=ncols)))
    rows = sparse(mat)
    moved = [{labels[c]: v for c, v in row.items()} for row in rows]
    assert hermite_rows(moved) == [{labels[c]: v for c, v in row.items()}
                                   for row in hermite_rows(rows)]
    assert smith_normal_form(moved) == smith_normal_form(rows)


@settings(max_examples=200, deadline=None)
@given(_small_int_matrices(), st.integers(0, 3), st.data())
def test_integer_kernel_basis_column_relabel(mat, extra, data):
    """The kernel over columns relabelled by a strictly increasing map,
    such as the subset masks of a relation matrix, is the kernel over
    range(n) relabelled the same way; columns no row touches included."""
    n = (len(mat[0]) if mat else 0) + extra
    labels = sorted(data.draw(st.sets(st.integers(-50, 2**20),
                                      min_size=n, max_size=n)))
    rows = sparse(mat)
    moved = [{labels[c]: v for c, v in row.items()} for row in rows]
    assert integer_kernel_basis(moved, labels) == [
        {labels[c]: v for c, v in row.items()}
        for row in integer_kernel_basis(rows, range(n))]


def test_integer_kernel_of_no_rows_is_the_identity():
    for n in range(4):
        identity = [[int(r == c) for c in range(n)] for r in range(n)]
        cols = range(n)
        assert to_dense(integer_kernel_basis([], cols), cols) == identity
        assert to_dense(integer_kernel_basis([{}, ()], cols), cols) == identity


def test_hermite_rows_matches_dense_reference_on_relation_matrices(
        fig1_left, fig1_right):
    graphs = connected_multigraphs(6) + [fig1_left, fig1_right]
    for g in graphs:
        for j in range(g.num_edges + 1):
            rel = relation_matrix(g, j)
            assert (to_dense(hermite_rows(rel.rows), rel.basis)
                    == reference_hermite_rows(dense(rel))), (g.edges, j)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
    min_size=1, max_size=5)))
@example([[0, 0, 0]])
@example([[2, 4, 6], [0, 0, 0]])
def test_integer_kernel_basis_property(mat):
    """The basis annihilates the matrix, has ncols - rank rows, is in
    Hermite form and spans a saturated lattice (every Smith factor 1)."""
    ncols = len(mat[0])
    rows = sparse(mat)
    basis = integer_kernel_basis(rows, range(ncols))
    assert all(sum(a * b for a, b in zip(row, v)) == 0
               for row in mat for v in to_dense(basis, range(ncols)))
    assert len(basis) == ncols - rank_int_rows(rows)
    assert hermite_rows(basis) == basis
    assert all(f == 1 for f in smith_normal_form(basis))


def test_min_norm_affine_examples():
    assert min_norm_affine([], 1) == (1, ((1,),))
    den, u = min_norm_affine(triangle_incidence(), 3)
    assert den == 3
    assert all([abs(x) for x in ui] == [1, 1, 1] for ui in u)
    assert min_norm_affine([[1, -1, 0]], 3) == (2, ((1, 1, 0), (1, 1, 0),
                                                    (0, 0, 2)))
    assert min_norm_affine([[1, 1, 1]], 3) == (3, ((2, -1, -1), (-1, 2, -1),
                                                   (-1, -1, 2)))
    assert min_norm_affine([[1, 1]], 2) == (2, ((1, -1), (-1, 1)))


def test_min_norm_affine_vanishes_where_the_kernel_does():
    # every kernel vector vanishes at a coordinate exactly when its
    # projection is zero: only the value 0 can be fixed there
    assert min_norm_affine([[1, 0], [0, 1]], 2) == (1, ((0, 0), (0, 0)))
    den, u = min_norm_affine([[1, 0, 0], [0, 1, 1]], 3)
    assert u[0] == (0, 0, 0)
    assert u[1][1] > 0 and u[2][2] > 0


@settings(max_examples=150, deadline=None)
@given(_small_int_matrices())
def test_min_norm_orthogonality_property(mat):
    """With (den, u) = min_norm_affine(mat), den > 0 and each u_i is the
    integer vector den P e_i: it lies in ker(mat), and u_i - den e_i is
    orthogonal to ker(mat), so <u_i, k> = den k_i for every kernel vector
    k.  So u_i is the multiple of P e_i that its name says, and u is
    symmetric, and (den, u) is in lowest terms."""
    ncols = len(mat[0]) if mat else 3
    cols = range(ncols)
    kernel = to_dense(integer_kernel_basis(sparse(mat), cols), cols)
    den, u = min_norm_affine(mat, ncols)
    assert den > 0
    assert gcd(den, *(x for ui in u for x in ui)) == 1
    assert len(u) == ncols
    for i, ui in enumerate(u):
        assert all(type(x) is int for x in ui)
        assert all(sum(a * b for a, b in zip(row, ui)) == 0 for row in mat)
        assert all(sum(a * b for a, b in zip(k, ui)) == den * k[i]
                   for k in kernel)
        assert all(ui[c] == u[c][i] for c in cols)


def point_from_projection(mat, i, value, ncols):
    """The minimum-norm point with x_i = value read from the projection
    rows of ``min_norm_affine``, or None where it does not exist."""
    _, u = min_norm_affine(mat, ncols)
    if u[i][i] == 0:
        return [F(0)] * ncols if value == 0 else None
    return [x * F(value) / u[i][i] for x in u[i]]


def _same_min_norm_point(mat, i, value, ncols):
    expected = min_norm_affine_rational(mat, i, value, ncols)
    assert point_from_projection(mat, i, value, ncols) == expected
    return expected is not None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_min_norm_affine_matches_rational_solve(data):
    """Random integer matrices: rank-deficient, with zero rows, repeats and
    combinations of rows, and large entries; full column rank makes the
    nonzero values infeasible."""
    mat = data.draw(_int_matrices())
    ncols = len(mat[0]) if mat else data.draw(st.integers(1, 8))
    i = data.draw(st.integers(0, ncols - 1))
    value = data.draw(st.sampled_from([0, 1, -1, 3, F(-5, 2)]))
    feasible = _same_min_norm_point(mat, i, value, ncols)
    event("feasible" if feasible else "infeasible")


def test_min_norm_affine_matches_rational_solve_on_graphs(graph_dir):
    """Every edge of the sample graphs and of K6 plus an edge parallel to
    1-2 (16 edges), where the Laplacian solve grows its coefficients, on
    the full and on the grounded incidence rows; cut-edges are
    infeasible."""
    k6e = complete_graph(6)
    k6e = build(k6e.edges + ((16, 1, 2),))
    graphs = [parse_graph(str(p)) for p in sorted(graph_dir.glob("*.g"))]
    feasible = 0
    for g in graphs + [k6e]:
        for mat in ([list(g.incidence_row(v)) for v in g.vertices],
                    g.grounded_incidence()):
            for i in range(g.num_edges):
                for value in (1, -1, F(2, 3)):
                    feasible += _same_min_norm_point(mat, i, value,
                                                     g.num_edges)
    assert feasible == 6 * sum(g.num_edges - len(g.cut_edges)
                               for g in graphs + [k6e])


def test_enumerate_by_norm_examples():
    assert sorted(enumerate_by_norm([[2]], 8)) == [(-2,), (-1,), (0,), (1,), (2,)]
    ident = enumerate_by_norm([[1, 0], [0, 1]], 1)
    assert len(ident) == 5
    assert sorted(enumerate_by_norm([[3]], 2)) == [(0,)]


def test_enumerate_by_norm_symmetry_and_zero():
    gram = [[2, 1], [1, 3]]
    vecs = set(enumerate_by_norm(gram, 7))
    assert (0, 0) in vecs
    assert all(tuple(-x for x in v) in vecs for v in vecs)


@st.composite
def spd_grams(draw):
    """Symmetric positive definite n x n matrices, n <= 3: B^T B + I with
    small integer B, or L D L^T with small rational L and D."""
    n = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        return [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j)
                 for j in range(n)] for i in range(n)]
    low = [[F(draw(st.integers(-1, 1)), draw(st.integers(1, 3))) if j < i
            else F(int(i == j)) for j in range(n)] for i in range(n)]
    d = [F(draw(st.integers(1, 3)), draw(st.integers(1, 2))) for _ in range(n)]
    return [[sum(low[i][k] * d[k] * low[j][k] for k in range(n))
             for j in range(n)] for i in range(n)]


def brute_force_by_norm(gram, bound):
    """Every v with v^T G v <= bound, from the box |v_i|^2 <= bound (G^-1)_ii
    (Cauchy-Schwarz in the G inner product), in the search's order: last
    coordinate outermost, each ascending."""
    n = len(gram)
    red, _ = rref([list(row) + [int(i == j) for j in range(n)]
                   for i, row in enumerate(gram)])
    inv_diag = [red[i][n + i] for i in range(n)]
    radii = [isqrt(floor(bound * x)) for x in inv_diag]
    found = []
    for flipped in product(*(range(-r, r + 1) for r in reversed(radii))):
        v = flipped[::-1]
        if sum(v[a] * gram[a][b] * v[b]
               for a in range(n) for b in range(n)) <= bound:
            found.append(v)
    return found


@settings(max_examples=60, deadline=None)
@given(spd_grams(), st.builds(F, st.integers(0, 12), st.integers(1, 2)))
@example([[2, 1], [1, 3]], F(7, 2))  # weights 1/2 and 5/2: scaled by 2
@example([[F(1, 2)]], F(3))
def test_enumerate_by_norm_matches_brute_force(gram, bound):
    assert enumerate_by_norm(gram, bound) == brute_force_by_norm(gram, bound)


def test_enumerate_rejects_bad_gram():
    with pytest.raises(InputError):
        enumerate_by_norm([[0]], 4)
    with pytest.raises(InputError):
        enumerate_by_norm([[1, 2], [3, 1]], 4)  # not symmetric
    with pytest.raises(InputError):
        enumerate_by_norm([[1, 2], [2, 1]], 4)  # indefinite


@pytest.mark.parametrize("gram", [[[2.0]], [["2"]], [[2, 1], [1, 2.5]]])
def test_enumerate_refuses_a_gram_entry_that_is_not_exact(gram):
    with pytest.raises(InputError, match="is not an int or a Fraction"):
        enumerate_by_norm(gram, 4)


@pytest.mark.parametrize("gram", [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    # two zero leading minors: the row swaps that get past them cancel in
    # the determinant's sign, and every pivot after them is positive
    [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
     [0, 0, 0, 0, 1]],
])
def test_enumerate_refuses_a_zero_leading_minor(gram):
    assert det_int(gram) != 0  # an elimination with row swaps gets past it
    with pytest.raises(InputError, match="not positive definite"):
        enumerate_by_norm(gram, 4)


def test_det_int():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def test_rank_int_rows_sparse():
    rows = [{0: 1, 2: -1}, {0: 2, 2: -2}, {1: 5}]
    assert rank_int_rows(rows) == 2
    # leading values 2 and 3: cleared by cross-multiplication, not a unit
    assert rank_int_rows([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
    assert rank_int_rows([{0: 2, 1: 1}, {0: 3, 1: 5}]) == 2


@st.composite
def _int_matrices(draw):
    """Integer matrices of up to 8 x 8 with entries up to 10**6 in size,
    mixing random rows with zero rows, repeats and integer combinations."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-10**6, 10**6) | st.integers(-3, 3)
    mat = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combine"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "repeat" and mat:
            row = list(draw(st.sampled_from(mat)))
        elif kind == "combine" and mat:
            row = [0] * ncols
            for other in draw(st.lists(st.sampled_from(mat), max_size=3)):
                k = draw(st.integers(-5, 5))
                row = [x + k * y for x, y in zip(row, other)]
        else:
            row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        mat.append(row)
    return mat


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
def test_rank_int_rows_matches_rref(mat):
    rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
    before = [dict(r) for r in rows]
    assert rank_int_rows(rows) == len(rref(mat)[1])
    assert rows == before
