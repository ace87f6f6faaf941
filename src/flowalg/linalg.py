"""Exact linear algebra over the rationals and the integers.

Everything here is exact: matrices hold Python ints or ``Fraction``s and no
floating point enters any code path.  The eliminations work on sparse rows
(dicts column -> value), because relation matrices of a few hundred rows
are mostly zeros; the small square routines, the determinant and the
short-vector search over a Gram matrix, are dense and share one Bareiss
elimination.  The relation matrices and the monomial evaluation matrices
are ranked by :func:`rank_int_rows`, a row-by-row echelon reduction in
integers.  One integer lattice reduction, the row Hermite form of
:func:`hermite_rows`, a unimodular row-by-row reduction, gives both the
integer kernels and the Smith invariant factors (alternating row Hermite
forms); they take and return sparse rows.  A column may be any integer,
such as the subset mask that names a column of a relation matrix, and
columns are ordered by their value.

Minimum-norm points come from the orthogonal projection onto a kernel, for
every coordinate at once: one fraction-free integer solve of the Gram
system mat mat^T with all columns of mat as right-hand sides gives the
projection as an integer matrix over one denominator; on an incidence
matrix the Gram system is the graph Laplacian (see :func:`min_norm_affine`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import InputError


# -- minimum-norm point ---------------------------------------------------


def min_norm_affine(mat, ncols: int
                    ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The orthogonal projection P onto ker(mat), for an integer matrix
    ``mat`` with ``ncols`` columns, as ``(den, u)``: ``den > 0`` and, for
    every coordinate i, ``u[i] = den * P e_i``, an integer vector.

    It gives the minimum-norm point of ``{x : mat @ x = 0, x[i] = value}``
    for every i at once: that point is value * u[i] / u[i][i], because
    |P e_i|^2 = (P e_i)_i; when u[i][i] = 0, every point of ker(mat)
    vanishes at i and only value 0 is feasible.  P = I - mat^T Y for any Y
    with (mat mat^T) Y = mat: the system is always consistent and mat^T Y
    does not depend on the choice of Y, so the free variables are set to 0.
    For an incidence matrix, mat mat^T is the graph Laplacian and each
    column of Y a vertex potential.

    The solve is one fraction-free elimination: the rows of
    [mat mat^T | mat] are reduced one by one to an integer echelon form by
    :func:`_echelon`, and back-substitution keeps Y = Y_num / den over one
    common denominator for all ``ncols`` right-hand sides.  So
    u = den I - mat^T Y_num, a symmetric integer matrix.
    """
    r = len(mat)
    pivots = _echelon(
        {c: v for c, v in enumerate([sum(map(mul, r1, r2)) for r2 in mat]
                                    + list(r1)) if v}
        for r1 in mat)
    y = [[0] * ncols for _ in range(r)]
    den = 1
    # the system is consistent, so every pivot lies in the Gram block
    for p in sorted(pivots, reverse=True):
        piv = pivots[p]
        s = [piv.get(r + c, 0) * den for c in range(ncols)]
        for k, v in piv.items():
            if p < k < r:
                s = [a - v * b for a, b in zip(s, y[k])]
        # y_p = s / (piv[p] den): scale Y to the common denominator piv[p] den
        y = [[x * piv[p] for x in row] for row in y]
        den *= piv[p]
        y[p] = s
        g = gcd(den, *(x for row in y for x in row))
        if g > 1:
            y = [[x // g for x in row] for row in y]
            den //= g
    if den < 0:
        den, y = -den, [[-x for x in row] for row in y]
    # u[i][c] = den [c = i] - sum_k y[k][i] mat[k][c]
    u = [[den * (c == i) for c in range(ncols)] for i in range(ncols)]
    for yk, row in zip(y, mat):
        for c, a in enumerate(row):
            if a:
                for i, b in enumerate(yk):
                    if b:
                        u[i][c] -= a * b
    return den, tuple(map(tuple, u))


# -- sparse fraction-free integer rank ------------------------------------


def rank_int_rows(rows) -> int:
    """Rank of an integer matrix given as sparse rows: dicts (column ->
    value) or sequences of (column, value) pairs, every stored value nonzero.
    A column may be any integer, such as a subset mask, because a rank does
    not depend on the order of the columns.  The rank is the number of pivot
    rows of :func:`_echelon`."""
    return len(_echelon(rows))


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Pivot rows of a row-by-row echelon reduction of sparse integer rows
    (as for :func:`rank_int_rows`), keyed by their lowest column.

    Each row's lowest column is cleared against the pivot row that owns it,
    fraction-free: both leading values are divided by their gcd, then the
    rows are cross-multiplied.  A row whose lowest column has no pivot row
    is divided by the gcd of its entries and becomes that column's pivot
    row.  The input rows are copied, not changed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                g = gcd(*row.values())
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
                pivots[c] = row
                break
            g = gcd(row[c], piv[c])
            a, b = row[c] // g, piv[c] // g
            if b != 1:
                for k in row:
                    row[k] *= b
            for k, v in piv.items():
                nv = row.get(k, 0) - a * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return pivots


def det_int(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    if not mat:
        return 1
    m, swaps = _bareiss(mat)
    if any(row[k] == 0 for k, row in enumerate(m)):
        return 0  # a zero pivot that no row swap could replace
    return (-1) ** swaps * m[-1][-1]


def _bareiss(mat) -> tuple[list[list[int]], int]:
    """Bareiss's fraction-free elimination of a square integer matrix, as
    ``(m, swaps)`` with m upper triangular.  Without row swaps, m[k][k] is
    the leading (k+1) x (k+1) minor and m[k][j] (j > k) the minor on rows
    0..k and columns 0..k-1, j.  A zero pivot's row is swapped with the
    first row below that is nonzero in its column, and ``swaps`` counts
    these; with no such row the matrix is singular, and the elimination
    stops with the zero on the diagonal."""
    n = len(mat)
    m = [list(row) for row in mat]
    swaps = 0
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return m, swaps
            m[k], m[pr] = m[pr], m[k]
            swaps += 1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return m, swaps


# -- Smith normal form ----------------------------------------------------


def smith_normal_form(rows) -> list[int]:
    """Nonzero invariant factors ``d_1 | d_2 | ...`` of sparse integer rows.

    Row Hermite forms of the matrix and its transposes, alternately (Kannan
    and Bachem 1979), until the form is diagonal.  Each pass is unimodular,
    so the factors stay.  The first pivot only ever shrinks to a divisor;
    a pass that keeps it splits it off as a 1 x 1 block, because the
    Hermite form of a lattice is unique, so the passes end.  A form whose
    pivots are all 1 has a unit minor of full size, and every factor is 1.
    The diagonal becomes a divisibility chain by (gcd, lcm) replacements.
    """
    h = hermite_rows(rows)
    while any(len(row) > 1 for row in h):
        if all(row[min(row)] == 1 for row in h):
            return [1] * len(h)
        h = hermite_rows(_columns(h).values())
    d = [row[min(row)] for row in h]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


def _columns(rows) -> dict[int, dict[int, int]]:
    """The transpose of sparse rows: each column, keyed by row index."""
    cols: dict[int, dict[int, int]] = {}
    for r, row in enumerate(rows):
        for c, v in dict(row).items():
            cols.setdefault(c, {})[r] = v
    return cols


def integer_kernel_basis(rows, columns) -> list[dict[int, int]]:
    """Basis of the integer kernel ``{x : mat @ x = 0}`` of sparse integer
    rows over the ascending column keys ``columns`` (a sequence), as sparse
    rows in row Hermite form.

    One :func:`hermite_rows` of ``[mat^T | I]``, the rows of mat^T and of I
    taken in the order of ``columns``: its rows span the same lattice as
    the unimodular ``[mat^T | I]``, so those with a zero left block are a
    basis of the kernel, and they come out in Hermite form, which is unique
    for the lattice.  Without rows, the basis is I.
    """
    nr = len(rows)
    cols = _columns(rows)
    aug = [{**cols.get(c, {}), nr + k: 1} for k, c in enumerate(columns)]
    return [{columns[k - nr]: v for k, v in row.items()}
            for row in hermite_rows(aug) if min(row) >= nr]


def hermite_rows(rows) -> list[dict[int, int]]:
    """Row Hermite normal form of sparse integer rows (as for
    :func:`rank_int_rows`, and not changed): the nonzero rows, as dicts in
    ascending pivot order, with positive pivots and the entries above each
    pivot reduced into [0, pivot).  It depends only on the column order.

    The rows are reduced one by one, each step unimodular.  A row's lowest
    column is cleared against the pivot row that owns it: by an exact
    multiple when the pivot divides the entry, else by the 2 x 2
    extended-Euclid step that leaves their gcd in the pivot row.  Then each
    pivot is made positive and, in ascending pivot order, the entries above
    it are reduced.  The Hermite form of a lattice is unique, so the order
    of the steps does not change the result.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            a, b = piv[c], row[c]
            if b % a == 0:
                _add_multiple(row, -(b // a), piv)
                continue
            g, s, t = _xgcd(a, b)
            # [piv; row] <- [[s, t], [-b/g, a/g]] [piv; row], determinant 1
            pivots[c] = _combination(s, piv, t, row)
            row = _combination(-(b // g), piv, a // g, row)
    order = sorted(pivots)
    for c in order:
        row = pivots[c]
        if row[c] < 0:
            pivots[c] = {k: -v for k, v in row.items()}
    for k, c in enumerate(order):
        piv = pivots[c]
        for above in order[:k]:
            q = pivots[above].get(c, 0) // piv[c]
            if q:
                _add_multiple(pivots[above], -q, piv)
    return [pivots[c] for c in order]


def _add_multiple(row: dict[int, int], q: int, other: dict[int, int]) -> None:
    """row += q * other, in place, for sparse integer rows."""
    for k, v in other.items():
        nv = row.get(k, 0) + q * v
        if nv:
            row[k] = nv
        else:
            del row[k]


def _combination(s: int, u: dict[int, int], t: int, v: dict[int, int]
                 ) -> dict[int, int]:
    """The sparse row s * u + t * v, zero entries dropped."""
    out = {k: s * x for k, x in u.items()} if s else {}
    _add_multiple(out, t, v)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s a + t b = g, for a, b not
    both zero."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


# -- lattice point enumeration --------------------------------------------


def enumerate_by_norm(gram, bound) -> list[tuple[int, ...]]:
    """All integer coordinate vectors v with ``v^T gram v <= bound``.

    The Gram matrix (integers or ``Fraction``s) must be symmetric positive
    definite (checked exactly).  The list is complete, duplicate-free,
    contains 0 and is symmetric under negation.

    A Fincke-Pohst search in integers over the Bareiss elimination M of
    den * gram, den the lcm of its denominators.  Every leading minor
    D_(k+1) = M[k][k] must be positive (Sylvester's criterion on the matrix
    as given: a zero one is refused, not swapped away).  With D_0 = 1,
    den v^T gram v = sum_k u_k^2 / (D_k D_(k+1)) over the integers
    u_k = D_(k+1) v_k + sum_(j>k) M[k][j] v_j (its LDL^T decomposition).
    With S the lcm of the D_k D_(k+1), the weights S / (D_k D_(k+1)) are
    integers and the bound becomes the integer floor(bound den S), so each
    coordinate's range follows from ``isqrt`` and the remainder stays an
    integer.  Coordinates ascend, last coordinate outermost.
    """
    n = len(gram)
    bound = Fraction(bound)
    if bound < 0:
        raise InputError("norm bound must be nonnegative")
    if n == 0:
        return [()]
    for i in range(n):
        if len(gram[i]) != n:
            raise InputError("Gram matrix must be square")
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise InputError("Gram matrix must be symmetric")
    den = lcm(*(x.denominator for row in gram for x in row))
    m, swaps = _bareiss([[x.numerator * (den // x.denominator) for x in row]
                         for row in gram])
    qs = [row[k] for k, row in enumerate(m)]
    if swaps or min(qs) <= 0:
        raise InputError("matrix is not positive definite")
    cols = [[(j, row[j]) for j in range(k + 1, n) if row[j]]
            for k, row in enumerate(m)]
    dens = [a * b for a, b in zip([1] + qs, qs)]
    scale = lcm(*dens)
    weights = [scale // d for d in dens]
    out: list[tuple[int, ...]] = []
    vec = [0] * n

    def descend(i: int, remaining: int):
        if i < 0:
            out.append(tuple(vec))
            return
        q, w = qs[i], weights[i]
        a = sum(c * vec[j] for j, c in cols[i])
        s = isqrt(remaining // w)
        # all t with |q t + a| <= s, that is w (q t + a)^2 <= remaining
        for t in range(-((s + a) // q), (s - a) // q + 1):
            vec[i] = t
            u = q * t + a
            descend(i - 1, remaining - w * u * u)
        vec[i] = 0

    descend(n - 1, bound.numerator * den * scale // bound.denominator)
    return out
