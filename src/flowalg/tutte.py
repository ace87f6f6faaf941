"""Tutte polynomial, its Poincare-polynomial specialization, and forest
counts.

The deletion-contraction recursion is the production route; a corank-nullity
subset sum provides an independent oracle and is cross-checked automatically
whenever the graph has at most 12 edges.  All arithmetic is integer-exact.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import CheckError
from .graph import Graph, _components


class BiPoly:
    """Integer polynomial in two variables, stored as {(i, j): coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly({(0, 0): 1})

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
        return BiPoly(acc)

    def shift(self, di: int, dj: int) -> "BiPoly":
        return BiPoly({(i + di, j + dj): c for (i, j), c in self.coeffs.items()})

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
_memo: dict[tuple, BiPoly] = {}


def clear_cache() -> None:
    _memo.clear()


def _normal_form(g: Graph) -> tuple:
    """Exact canonical key: drop isolated vertices, relabel the rest by
    ascending original id, sort the undirected edge multiset.  Equal keys
    imply equal graphs up to relabeling, so a cache hit is always sound.

    The key is the number n of vertices kept, then each edge {i, j} with
    i <= j as the single integer i * n + j: the memo holds one key per graph
    it has seen, and flat small integers take a fraction of the memory of
    a tuple of pairs."""
    used = sorted({v for _, t, h in g.edges for v in (t, h)})
    n = len(used)
    index = {v: i for i, v in enumerate(used)}
    codes = sorted(min(index[t], index[h]) * n + max(index[t], index[h])
                   for _, t, h in g.edges)
    return (n, *codes)


def _tutte_rec(g: Graph) -> BiPoly:
    # Equal keys mean isomorphic graphs, so a hit is sound before the pivot
    # search; only graphs with a pivot are ever stored.
    key = _normal_form(g)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    pivot = None
    for eid, tail, head in sorted(g.edges):
        if tail != head and not g.is_cut_edge(eid):
            pivot = eid
            break
    if pivot is None:
        # only loops and bridges remain
        loops = sum(1 for _, t, h in g.edges if t == h)
        bridges = g.num_edges - loops
        return BiPoly({(bridges, loops): 1})
    result = _tutte_rec(g.delete([pivot])) + _tutte_rec(g.contract([pivot]).graph)
    _memo[key] = result
    return result


def tutte_by_subsets(g: Graph) -> BiPoly:
    """Corank-nullity oracle: sum over all edge subsets S of
    (x-1)^(r(E)-r(S)) (y-1)^(|S|-r(S)) with r(S) = n - c(S).

    The subsets are built one edge at a time (left out or put in), and
    subsets that so far induce the same vertex partition are counted
    together, by size: the counts sit in one integer, base 2^(m+1), digit s
    for the subsets of size s (a digit never exceeds 2^m, so adding two such
    integers never carries and putting an edge in is a shift by one digit).
    r(S) follows from the partition."""
    n = g.num_vertices
    m = g.num_edges
    index = {v: i for i, v in enumerate(g.vertices)}
    r_full = n - g.num_components
    digit = m + 1
    # component label of each vertex (its least index) -> packed size counts
    states: dict[tuple[int, ...], int] = {tuple(range(n)): 1}
    for _, tail, head in g.edges:
        t, h = index[tail], index[head]
        nxt: dict[tuple[int, ...], int] = {}
        for labels, counts in states.items():
            nxt[labels] = nxt.get(labels, 0) + counts
            lo, hi = sorted((labels[t], labels[h]))
            if lo != hi:
                labels = tuple(lo if x == hi else x for x in labels)
            nxt[labels] = nxt.get(labels, 0) + (counts << digit)
        states = nxt
    acc: dict[tuple[int, int], int] = {}
    mask = (1 << digit) - 1
    for labels, counts in states.items():
        r_s = n - len(set(labels))
        for size in range(m + 1):
            cnt = counts >> (size * digit) & mask
            if cnt:
                key = (r_full - r_s, size - r_s)
                acc[key] = acc.get(key, 0) + cnt
    # expand sum of (x-1)^a (y-1)^b monomial by monomial
    out: dict[tuple[int, int], int] = {}
    for (a, b), cnt in acc.items():
        for i in range(a + 1):
            for j in range(b + 1):
                sign = (-1) ** ((a - i) + (b - j))
                k = (i, j)
                out[k] = out.get(k, 0) + cnt * sign * comb(a, i) * comb(b, j)
    return BiPoly(out)


def tutte(g: Graph) -> BiPoly:
    """Tutte polynomial; deletion-contraction cross-checked against the
    subset-sum oracle when the graph has at most 12 edges."""
    result = _tutte_rec(g)
    if g.num_edges <= 12:
        oracle = tutte_by_subsets(g)
        if oracle != result:
            raise CheckError("deletion-contraction and subset-sum Tutte "
                             "computations disagree")
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
            raise CheckError("Tutte polynomial exceeds the graph rank")
        for s in range(j + 1):
            acc[base + s] = acc.get(base + s, 0) + c * comb(j, s)
    degree = max(acc) if acc else 0
    coeffs = [acc.get(d, 0) for d in range(degree + 1)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c < 0 for c in coeffs) or (coeffs and coeffs[0] != 1):
        raise CheckError("specialized polynomial has an impossible shape")
    return coeffs


def count_spanning_forests(g: Graph) -> int:
    """Direct enumeration oracle: acyclic edge sets of size n - k."""
    n = g.num_vertices
    k = g.num_components
    target = n - k
    count = 0
    for subset in combinations(g.edges, target):
        parent = {v: v for v in g.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for _, tail, head in subset:
            rt, rh = find(tail), find(head)
            if rt == rh:
                ok = False
                break
            parent[rt] = rh
        if ok:
            count += 1
    return count


def complexity(g: Graph) -> int:
    """Number of maximal forests, computed as T(1, 1) and cross-checked by
    direct enumeration when the graph has at most 12 edges."""
    kappa = sum(_tutte_rec(g).coeffs.values())
    if g.num_edges <= 12:
        direct = count_spanning_forests(g)
        if direct != kappa:
            raise CheckError(
                f"T(1,1) = {kappa} but direct forest count = {direct}")
    return kappa
