"""Exact linear algebra over the rationals and the integers.

Everything here is exact: matrices hold Python ints or ``Fraction``s and no
floating point enters any code path.  The eliminations work on sparse rows
(dicts column -> value), because relation matrices of a few hundred rows
are mostly zeros; the small square systems, of the determinant, the
short-vector search over a Gram matrix and the kernel projection, are dense
and share one Bareiss elimination.  The relation matrices and the monomial
evaluation matrices are ranked by :func:`rank_int_rows`, a row-by-row
echelon reduction in integers.  One integer lattice reduction, the row
Hermite form of :func:`hermite_rows`, a unimodular row-by-row triangular
pass and then its normalisation, gives both the integer kernels and the
Smith invariant factors (alternating row Hermite forms); they take and
return sparse rows.  The Smith form returns after a triangular pass whose
pivots are all +-1, which proves every factor is 1, without normalising
it.  A column may be any integer, such as the subset mask that names a
column of a relation matrix, and columns are ordered by their value.

Minimum-norm points come from the orthogonal projection onto a kernel, for
every coordinate at once: the echelon reduction picks independent rows B
with the row space of mat, and one Bareiss elimination of the Gram system
B B^T, carrying B as right-hand sides, gives the projection as an integer
matrix over one denominator (see :func:`min_norm_affine`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import InputError, require_bound


# -- minimum-norm point ---------------------------------------------------


def min_norm_affine(mat, ncols: int
                    ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The orthogonal projection P onto ker(mat), for an integer matrix
    ``mat`` with ``ncols`` columns, as ``(den, u)`` in lowest terms:
    ``den > 0`` and, for every coordinate i, ``u[i] = den * P e_i``, an
    integer vector.

    It gives the minimum-norm point of ``{x : mat @ x = 0, x[i] = value}``
    for every i at once: that point is value * u[i] / u[i][i], because
    |P e_i|^2 = (P e_i)_i; when u[i][i] = 0, every point of ker(mat)
    vanishes at i and only value 0 is feasible.  P depends on the row space
    alone, so the solve runs on the pivot rows B of :func:`_echelon`,
    independent rows with the row space of mat: P = I - B^T (B B^T)^-1 B.

    One :func:`_bareiss` of [B B^T | B], positive definite on the left so
    without swaps, ends with d = det(B B^T) as its last pivot; fraction-free
    back-substitution gives X = d (B B^T)^-1 B in integers (Cramer's rule),
    so d P = d I - B^T X, a symmetric integer matrix, and dividing out the
    gcd of d and its entries gives (den, u).
    """
    basis = [[row.get(c, 0) for c in range(ncols)] for row in _echelon(
        {c: v for c, v in enumerate(row) if v} for row in mat).values()]
    r = len(basis)
    m, _ = _bareiss([[sum(map(mul, a, b)) for b in basis] + a
                     for a in basis])
    d = m[-1][r - 1] if r else 1
    x = [None] * r
    for i in reversed(range(r)):
        s = [d * v for v in m[i][r:]]
        for j in range(i + 1, r):
            if m[i][j]:
                s = [a - m[i][j] * b for a, b in zip(s, x[j])]
        x[i] = [a // m[i][i] for a in s]
    # u[c][i] = d [c = i] - sum_k B[k][c] X[k][i]
    u = [[d * (c == i) for i in range(ncols)] for c in range(ncols)]
    for b, xk in zip(basis, x):
        for c, a in enumerate(b):
            if a:
                u[c] = [p - a * q for p, q in zip(u[c], xk)]
    g = gcd(d, *(v for row in u for v in row))
    return d // g, tuple(tuple(v // g for v in row) for row in u)


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

    :func:`rank_int_rows` counts these rows and :func:`min_norm_affine`
    solves on them.  The ranks keep this reduction beside the unimodular
    :func:`_triangular`, measured on 2 CPUs with Python 3.11.7: ranking by
    ``len(_triangular(rows))`` gives the same ranks, and takes the K6-e
    monomial ranks from 9.4 s to 5.5 s, but ``multiplication_rank_check``
    on ``fig1_left`` did not finish in 300 s (0.09-0.16 s with this
    reduction), nor on ``fig1_right`` in 120 s with every row first divided
    by its content.
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
    """Bareiss's fraction-free elimination of an integer matrix of n rows,
    as ``(m, swaps)`` with the square block of the first n columns of m
    upper triangular; further columns, right-hand sides, are carried along.
    Without row swaps, m[k][k] is the leading (k+1) x (k+1) minor and
    m[k][j] (j > k) the minor on rows 0..k and columns 0..k-1, j.  A zero
    pivot's row is swapped with the first row below that is nonzero in its
    column, and ``swaps`` counts these; with no such row the square block
    is singular, and the elimination stops with the zero on the diagonal."""
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
            for j in range(k + 1, len(m[i])):
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
    Hermite form of a lattice is unique, so the passes end.  The
    diagonal becomes a divisibility chain by (gcd, lcm) replacements.

    A pass whose triangular form (:func:`_triangular`) has only pivots
    +-1 has a unit minor of full size, so every factor is 1: it returns
    there, before the form is normalised (the grounded relation matrices
    of all 1,682 corpus-7 graphs, 12,765 of them, do so on their first
    pass).  Otherwise those same pivot rows are normalised
    (:func:`_normalise`), so no row is reduced twice.
    """
    while True:
        pivots = _triangular(rows)
        if all(row[c] in (1, -1) for c, row in pivots.items()):
            return [1] * len(pivots)
        h = _normalise(pivots)
        if all(len(row) == 1 for row in h):
            break
        rows = _columns(h).values()
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

    The unimodular triangular pass of :func:`_triangular`, then the
    normalisation of :func:`_normalise`.  The Hermite form of a lattice is
    unique, so the order of the steps does not change the result.
    """
    return _normalise(_triangular(rows))


def _triangular(rows) -> dict[int, dict[int, int]]:
    """The pivot rows of a unimodular row-by-row reduction of sparse integer
    rows (not changed), keyed by their lowest column: an echelon form of
    the same lattice.

    A row's lowest column is cleared against the pivot row that owns it:
    by an exact multiple when the pivot divides the entry, else by the
    2 x 2 extended-Euclid step that leaves their gcd in the pivot row.  A
    row whose lowest column has no pivot row becomes that column's pivot
    row.  The rows are copies, so :func:`_normalise` may change them.
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
    return pivots


def _normalise(pivots: dict[int, dict[int, int]]) -> list[dict[int, int]]:
    """The Hermite form of the pivot rows of :func:`_triangular`, in
    ascending pivot order: each pivot made positive, then, in ascending
    pivot order, the entries above it reduced into [0, pivot).  The rows
    are changed in place."""
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

    The Gram matrix (integers or ``Fraction``s; any other entry, a float
    included, is refused) must be symmetric positive definite (checked
    exactly).  The list is complete, duplicate-free, contains 0 and is
    symmetric under negation.  ``errors.require_bound`` checks the bound.

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
    require_bound("norm bound", bound)
    n = len(gram)
    if n == 0:
        return [()]
    for i in range(n):
        if len(gram[i]) != n:
            raise InputError("Gram matrix must be square")
        for x in gram[i]:
            if not isinstance(x, (int, Fraction)):
                raise InputError(
                    f"Gram entry {x!r} is not an int or a Fraction")
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
    # the recursive closure refers to itself through its own cell; emptying
    # the cell frees it, and with it ``out``, once the caller lets go,
    # rather than at the next full garbage collection
    del descend
    return out
