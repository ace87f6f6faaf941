"""Tutte polynomial, its Poincare-polynomial specialization, and forest
counts.

The deletion-contraction recursion is the production route.  It uses that T
is multiplicative over blocks: a bridge gives x, a loop y, and a graph that
is not one 2-connected block is the product of those factors and the T of
each block of two or more edges (the bridges and blocks come from one
depth-first search, :attr:`Graph.blocks`).  Only a single block is split,
on its lowest edge id.  The memo holds the single blocks and the block
products, each under its :func:`_normal_form` key, a byte string that
each graph object computes once (:attr:`Graph.normal_form`).  Stored
polynomials share one ``(i, j)`` tuple per exponent pair, and each check
records the keys it has confirmed in a set of its own, so an entry costs
little beyond its key and its coefficients.  Two independent oracles check
it: a corank-nullity subset sum checks the Tutte polynomial on every graph
up to the capacity ceiling of ``MAX_SUBSET_EDGES`` edges, and Kirchhoff's
matrix-tree theorem checks T(1, 1), the number of maximal forests, on every
graph (``linalg.det_int``, tested in ``tests/test_linalg.py``).  The subset
sum is a frontier sweep over the edges: the subsets are grouped by the
partition they induce on the vertices that still have an edge to come, with
their counts kept by rank and nullity, so the 2^m subsets are never listed
one by one.  Each oracle runs once per distinct graph per process: a graph
whose recursion result an oracle has confirmed is recorded by its
:func:`_normal_form` key, and a later graph with an equal key (equal up to
relabeling and orientation) is not checked again.  All arithmetic is
integer-exact.
"""

from __future__ import annotations

from math import comb

from . import errors
from .errors import check_failed
from .graph import Graph


class BiPoly:
    """Integer polynomial in two variables, stored as {(i, j): coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}

    def __add__(self, other: "BiPoly") -> "BiPoly":
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            acc[k] = acc.get(k, 0) + v
        return BiPoly(acc)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        acc: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                acc[k] = acc.get(k, 0) + c1 * c2
        share = _exponents.setdefault
        return BiPoly({share(k, k): c for k, c in acc.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __call__(self, x, y):
        return sum(c * x ** i * y ** j for (i, j), c in self.coeffs.items())

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        return f"BiPoly({self.coeffs!r})"


# Shared memo for the deletion-contraction recursion.  Entries are only
# ever inserted, values are immutable, and dict get/set are atomic under
# the GIL, so concurrent use is safe; worst case two threads compute the
# same polynomial once each.
_memo: dict[bytes, BiPoly] = {}

# One (i, j) tuple per exponent pair, shared by the coefficients of every
# product and monomial the recursion builds, so stored polynomials do not
# each hold their own copies.  ``__add__`` keeps its summands' keys.
_exponents: dict[tuple[int, int], tuple[int, int]] = {}

# Per check, the keys whose recursion result that check's oracle has
# confirmed: "subset sum" for the Tutte polynomial, "forest count" for
# T(1, 1).  A key is added only after the two routes agree.
_verified: dict[str, set[bytes]] = {"subset sum": set(),
                                    "forest count": set()}


def clear_cache() -> None:
    _memo.clear()
    for keys in _verified.values():
        keys.clear()


def _normal_form(g: Graph) -> bytes:
    """Exact key of g for the memo and the oracle records: drop isolated
    vertices, relabel the rest by ascending original id, sort the
    undirected edge multiset.  Equal keys imply equal graphs up to
    relabeling, so a cache hit is always sound.

    The key is :attr:`Graph.normal_form`: the number n of vertices kept,
    then each edge {i, j} with i <= j as the code i * n + j, sorted, one
    byte each while n <= 16 and a wider fixed width above that.  It is a
    byte string because the memo holds one key per graph it has seen: a
    7-edge graph's key takes 41 B, where the tuple of its eight integers took
    104 B, and bytes cache their hash.  It is computed once per graph
    object, so ``tutte(g)``, ``complexity(g)``, the memo and both oracle
    records share one key object.

    The key depends on the labels, so isomorphic minors are computed
    again.  An isomorphism-invariant key (``corpus.canonical_key``) does
    not pay on small graphs.  On the 421 graphs of a quarter of corpus 7
    under ``verify_graph`` (2 CPUs, Python 3.11.7), the 6,817 oracle
    inputs fall into 5,299 isomorphism classes, so it saves at most 1,518
    oracle runs of about 100 us each.  But it costs about 73 us a graph
    against 12 us here, on each of 27,532 key computations, and the run
    took 1.2-1.5x the CPU time with it.  It pays on larger symmetric
    graphs: on C13 plus the chords i -> i+3 (26 edges) the recursion took
    1.06 s against 2.03 s, with 3,015 memo entries against 25,816."""
    return g.normal_form


def _tutte_rec(g: Graph, key: bytes) -> BiPoly:
    # ``key`` is ``_normal_form(g)``.  Equal keys mean isomorphic graphs, so
    # a hit is sound before the block search.  Block products and single
    # blocks are stored (see the module docstring); a graph of only bridges
    # and loops is not: one search rebuilds its monomial, and storing it
    # would only grow the memo.
    hit = _memo.get(key)
    if hit is not None:
        return hit
    bridges, blocks = g.blocks
    loops = g.num_edges - len(bridges) - sum(map(len, blocks))
    if len(blocks) == 1 and not bridges and not loops:
        result = _split(g)
    else:
        k = (len(bridges), loops)
        result = BiPoly({_exponents.setdefault(k, k): 1})
        if not blocks:
            return result
        by_id = g._by_id
        for block in blocks:
            edges = tuple(by_id[eid] for eid in block)
            b = Graph._derived(
                tuple(sorted({v for _, t, h in edges for v in (t, h)})), edges)
            b_key = _normal_form(b)
            t = _memo.get(b_key)
            if t is None:
                t = _memo[b_key] = _split(b)
            result = result * t
    _memo[key] = result
    return result


def _split(g: Graph) -> BiPoly:
    """T of a 2-connected block by deletion-contraction on its lowest edge
    id; the block is known to be one, so it is not searched again."""
    pivot = min(g.edge_ids)
    deleted = g.delete([pivot])
    contracted = g.contract([pivot])
    return (_tutte_rec(deleted, _normal_form(deleted))
            + _tutte_rec(contracted, _normal_form(contracted)))


def tutte_by_subsets(g: Graph) -> BiPoly:
    """Corank-nullity oracle: sum over all edge subsets S of
    (x-1)^(r(E)-r(S)) (y-1)^(|S|-r(S)), with r(E) = n - c(E).

    A frontier sweep: the subsets are built one edge at a time (left out or
    put in), and a state is the partition, by the edges put in so far, of
    the vertices that still have an edge to come.  A block is labelled by
    the least vertex index it has held; once a vertex has seen its last
    edge it is forgotten (its label becomes -1), so states that differ only
    in forgotten vertices merge.  Each state holds one integer of subset
    counts, base 2^(m+1), digit nu (r(E) + 1) + r for the subsets of rank r
    and nullity nu: a count never exceeds 2^m, so adding two such integers
    never carries.  Putting in an edge that joins two
    blocks is one rank step (a shift by one digit); an edge inside a block,
    a loop included, is one nullity step.  At the end the digit (r, nu)
    counts the term (x-1)^(r(E)-r) (y-1)^nu, and the sum is expanded in
    each variable once."""
    vertices = g.vertices
    n = len(vertices)
    m = g.num_edges
    index = {v: i for i, v in enumerate(vertices)}
    r_full = n - g.num_components
    bits = m + 1
    null_shift = (r_full + 1) * bits
    ends = [(index[t], index[h]) for _, t, h in g.edges]
    last = [-1] * n
    for k, pair in enumerate(ends):
        for v in pair:
            last[v] = k
    states: dict[tuple[int, ...], int] = {
        tuple(v if last[v] >= 0 else -1 for v in range(n)): 1}
    for k, (t, h) in enumerate(ends):
        nxt: dict[tuple[int, ...], int] = {}
        for labels, counts in states.items():
            nxt[labels] = nxt.get(labels, 0) + counts
            lo, hi = labels[t], labels[h]
            if lo == hi:
                nxt[labels] = nxt.get(labels, 0) + (counts << null_shift)
                continue
            if lo > hi:
                lo, hi = hi, lo
            joined = tuple(lo if x == hi else x for x in labels)
            nxt[joined] = nxt.get(joined, 0) + (counts << bits)
        for v in {t, h}:
            if last[v] == k:
                states, nxt = nxt, {}
                for labels, counts in states.items():
                    labels = labels[:v] + (-1,) + labels[v + 1:]
                    nxt[labels] = nxt.get(labels, 0) + counts
        states = nxt
    total = sum(states.values())
    # total = sum of c(a, nu) X^(r_full - a) Y^nu over the digits, with
    # X = 2^bits and Y = 2^null_shift.  Two Horner passes on the packed
    # integer expand it: X^(r_full - a) -> (1 - X)^a X^(r_full - a) over
    # the columns, that is x^a -> (x - 1)^a with the x digits reversed, then
    # Y^nu -> (Y - 1)^nu over the rows.  Every digit in between stays in
    # [0, 2^bits): after the first pass the digit (i, nu) is
    # sum_j t_ij C(j, nu) <= T(1, 2) <= 2^m, since Tutte coefficients are
    # nonnegative, so each pass ends on the plain base-2^bits digits.
    mask = (1 << bits) - 1
    slot = (1 << null_shift) - 1
    rows = total.bit_length() // null_shift + 1
    column = mask * sum(1 << (nu * null_shift) for nu in range(rows))
    in_x = 0
    for r in range(r_full + 1):
        in_x += (total & (column << (r * bits))) - (in_x << bits)
    packed = 0
    for nu in reversed(range(rows)):
        packed = ((packed << null_shift) - packed
                  + (in_x >> (nu * null_shift) & slot))
    out: dict[tuple[int, int], int] = {}
    j = 0
    while packed:
        for i in range(r_full + 1):
            c = packed >> ((r_full - i) * bits) & mask
            if c:
                out[(i, j)] = c
        packed >>= null_shift
        j += 1
    return BiPoly(out)


def tutte(g: Graph) -> BiPoly:
    """Tutte polynomial by deletion-contraction, checked against the
    subset-sum oracle up to ``MAX_SUBSET_EDGES`` edges, once per distinct
    graph per process (see the module docstring)."""
    key = _normal_form(g)
    result = _tutte_rec(g, key)
    if g.num_edges <= errors.MAX_SUBSET_EDGES:
        _cross_check(g, key, "subset sum", result, tutte_by_subsets)
    return result


def poincare(g: Graph) -> list[int]:
    """Coefficients d_0..d_(m-l) of the graded rank generating polynomial,
    obtained from the Tutte polynomial by the substitution
    t^(n-k) T(1/t, 1+t)."""
    t = tutte(g)
    shift = g.num_vertices - g.num_components
    acc: dict[int, int] = {}
    for (i, j), c in t.coeffs.items():
        base = shift - i
        if base < 0:
            raise check_failed(
                g, "Poincare degree",
                f"Tutte term x^{i} y^{j} exceeds the graph rank {shift}")
        for s in range(j + 1):
            acc[base + s] = acc.get(base + s, 0) + c * comb(j, s)
    degree = max(acc) if acc else 0
    coeffs = list(trimmed(acc.get(d, 0) for d in range(degree + 1)))
    if any(c < 0 for c in coeffs) or (coeffs and coeffs[0] != 1):
        raise check_failed(
            g, "Poincare shape",
            f"Tutte polynomial {t.sorted_items()} specializes to {coeffs}, "
            f"which is not 1 + (nonnegative terms)")
    return coeffs


def trimmed(seq) -> tuple[int, ...]:
    """A coefficient sequence without its trailing zeros (a lone zero
    stays), so rank sequences from different routes compare equal."""
    out = list(seq)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def count_spanning_forests(g: Graph) -> int:
    """Kirchhoff's matrix-tree theorem: the number of maximal forests is the
    determinant of the Laplacian B B^T without the least vertex of each
    component (B the incidence matrix, in which a loop's column is zero)."""
    from .linalg import det_int  # ``flowalg poincare`` loads no linalg
    roots = g._roots
    rows = [g.incidence_row(v) for v in g.vertices if v not in roots]
    return det_int([[sum(a * b for a, b in zip(r, s)) for s in rows]
                    for r in rows])


def complexity(g: Graph) -> int:
    """Number of maximal forests, computed as T(1, 1), checked against the
    matrix-tree determinant on every graph, once per distinct graph per
    process (see the module docstring)."""
    key = _normal_form(g)
    kappa = sum(_tutte_rec(g, key).coeffs.values())
    _cross_check(g, key, "forest count", kappa, count_spanning_forests)
    return kappa


def _cross_check(g: Graph, key: bytes, check: str, value, oracle) -> None:
    """Compare the recursion's ``value`` for g (``key`` is its normal form)
    with ``oracle(g)``, unless ``check`` has already confirmed that key;
    record the key once the two agree."""
    if key in _verified[check]:
        return
    expected = oracle(g)
    if expected != value:
        raise check_failed(g, check, f"deletion-contraction gives {value!r}, "
                                     f"the oracle gives {expected!r}")
    _verified[check].add(key)
