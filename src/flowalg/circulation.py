"""The graded algebra of circulations on a multigraph.

A circulation is a coefficient functional on edge subsets; the product is
subset convolution, dual to the splitting comultiplication on subsets.  The
module provides the combinatorial exponential and divided powers, nilpotence
degrees, the basic-flow monomial spanning sets whose ranks reproduce the
graded rank sequence, pseudopower (Macaulay) bounds and the structured
inequality verifier.  The monomials of all degrees come from one walk over
the chords that multiplies each shared prefix once; their tables, keyed by
subset mask, are ranked as they are.

Coefficients live in Q, Z, or a prime field F_p with p <= 97.  Sums and
products are computed in Z or Q with Python's own arithmetic; since the
circulation algebra is finitely generated and torsion-free, an F_p value is
the integer one reduced mod p, so the ring is applied once, by
``Ring.coerce``, to every entry a circulation stores.  Coefficients that are
not an int or a ``Fraction``, floats included, are refused.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

from .errors import InputError, check_failed, require_capacity
from .graph import Graph, _components
from .linalg import rank_int_rows
from .report import CheckReport
from .tutte import poincare, trimmed, tutte


# -- coefficient rings -----------------------------------------------------


class Ring:
    """One of the supported coefficient rings, Z, Q or F_p.  Circulations
    compute in Z or Q with Python's own arithmetic; the ring enters only
    through :meth:`coerce`, the reduction applied to every stored entry."""

    __slots__ = ("label", "char")

    def __init__(self, label: str, char: int = 0):
        self.label = label
        self.char = char

    def coerce(self, x):
        """The image of an int or a ``Fraction`` in this ring: an int in Z,
        an int or a ``Fraction`` in Q, an int in 0..p-1 in F_p.  Anything
        else (a float included), a non-integer in Z and a denominator
        divisible by p raise ``InputError``."""
        try:
            num, den = x.numerator, x.denominator
        except AttributeError:
            raise InputError(
                f"coefficient {x!r} is not an int or a Fraction") from None
        p = self.char
        if p:
            if den % p == 0:
                raise InputError("denominator not invertible in F_p")
            return num % p if den == 1 else num * pow(den, -1, p) % p
        if den == 1:
            return num
        if self.label == "Z":
            raise InputError("non-integer coefficient in an integer circulation")
        return Fraction(num, den)

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.label == other.label
                and self.char == other.char)

    def __hash__(self):
        return hash((self.label, self.char))

    def __repr__(self):
        return self.label


QQ = Ring("Q")
ZZ = Ring("Z")

_MAX_PRIME = 97


def GF(p: int) -> Ring:
    if p < 2 or p > _MAX_PRIME or any(p % d == 0 for d in range(2, p)):
        raise InputError(f"GF({p}) unsupported: need a prime p <= {_MAX_PRIME}")
    return Ring(f"F{p}", p)


# -- circulations ----------------------------------------------------------


class Circulation:
    """Coefficient table over edge-subset bit masks; absent keys are zero."""

    __slots__ = ("ring", "table")

    def __init__(self, ring: Ring, table: dict[int, object] | None = None):
        self.ring = ring
        tab = {}
        for mask, val in (table or {}).items():
            val = ring.coerce(val)
            if val != 0:
                tab[mask] = val
        self.table = tab

    @staticmethod
    def unit(ring: Ring) -> "Circulation":
        return Circulation(ring, {0: 1})

    @staticmethod
    def from_edge_vector(ring: Ring, vec) -> "Circulation":
        """Degree-1 circulation from a coefficient vector over edge
        positions."""
        return Circulation(ring, {1 << i: v for i, v in enumerate(vec) if v})

    def value(self, mask: int):
        return self.table.get(mask, 0)

    def is_zero(self) -> bool:
        return not self.table

    def is_homogeneous(self, degree: int) -> bool:
        return all(mask.bit_count() == degree for mask in self.table)

    def _require_same_ring(self, other: "Circulation"):
        if self.ring != other.ring:
            raise InputError(
                f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Circulation") -> "Circulation":
        self._require_same_ring(other)
        acc = dict(self.table)
        for m, v in other.table.items():
            acc[m] = acc.get(m, 0) + v
        return Circulation(self.ring, acc)

    def __sub__(self, other: "Circulation") -> "Circulation":
        self._require_same_ring(other)
        acc = dict(self.table)
        for m, v in other.table.items():
            acc[m] = acc.get(m, 0) - v
        return Circulation(self.ring, acc)

    def scale(self, c) -> "Circulation":
        c = self.ring.coerce(c)
        return Circulation(self.ring, {m: c * v for m, v in self.table.items()})

    def __mul__(self, other: "Circulation") -> "Circulation":
        """Subset-convolution product: the value on a subset is the sum of
        products over its two-block ordered splittings."""
        self._require_same_ring(other)
        acc: dict[int, object] = {}
        for m1, v1 in self.table.items():
            for m2, v2 in other.table.items():
                if m1 & m2:
                    continue
                k = m1 | m2
                acc[k] = acc.get(k, 0) + v1 * v2
        return Circulation(self.ring, acc)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circulation) and self.ring == other.ring
                and self.table == other.table)

    def __repr__(self):
        return f"Circulation({self.ring}, {self.table!r})"

    def annihilates(self, rows) -> bool:
        """Whether every sparse relation row, a sequence of (subset mask,
        coefficient) pairs, pairs to zero with this table."""
        table = self.table
        for row in rows:
            acc = 0
            for mask, coef in row:
                val = table.get(mask)
                if val is not None:  # absent keys are zero
                    acc += coef * val
            if self.ring.coerce(acc) != 0:
                return False
        return True


def exponential(phi: Circulation) -> Circulation:
    """Combinatorial exponential: the value on a subset sums, over its
    partitions into nonempty blocks, the products of the argument's block
    values.  Ring-agnostic (no division)."""
    if phi.value(0) != 0:
        raise InputError("exponential requires a vanishing degree-0 part")
    ring = phi.ring
    union = 0
    for m in phi.table:
        union |= m
    require_capacity(union.bit_count())
    memo: dict[int, object] = {0: 1}

    def exp_at(mask: int):
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        rest = mask ^ low
        total = 0
        # every partition has a unique block through the lowest element
        sub = rest
        while True:
            block = sub | low
            v = phi.table.get(block)
            if v is not None:
                total += v * exp_at(mask ^ block)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        total = memo[mask] = ring.coerce(total)
        return total

    acc = {}
    sub = union
    while True:
        acc[sub] = exp_at(sub)
        if sub == 0:
            break
        sub = (sub - 1) & union
    return Circulation(ring, acc)


def divided_power(phi: Circulation, j: int) -> Circulation:
    """Degree-j component of exp(phi) for a homogeneous degree-1 argument;
    over Q this equals phi^j / j!."""
    if not phi.is_homogeneous(1):
        raise InputError("divided powers require a homogeneous degree-1 argument")
    if j < 0:
        raise InputError("divided power degree must be nonnegative")
    if j == 0:
        return Circulation.unit(phi.ring)
    acc = {}
    for chosen in combinations(phi.table.items(), j):
        mask = 0
        val = 1
        for m, v in chosen:
            mask |= m
            val *= v
        acc[mask] = val
    return Circulation(phi.ring, acc)


def nilpotence(phi: Circulation) -> int:
    """Greatest n with phi^n nonzero, for homogeneous degree-1 input."""
    if not phi.is_homogeneous(1):
        raise InputError("nilpotence requires a homogeneous degree-1 argument")
    power = phi
    n = 0
    while not power.is_zero():
        n += 1
        power = power * phi
    return n


# -- monomials of basic flows ----------------------------------------------


def basic_flow_circulations(g: Graph) -> dict[int, Circulation]:
    """Chord id -> degree-1 integer circulation of its basic flow."""
    return {c: Circulation.from_edge_vector(ZZ, flow)
            for c, flow in g.basic_flows().items()}


def monomial_dimensions(g: Graph) -> list[int]:
    """Per-degree rank of the evaluation matrix of capped basic-flow
    divided-power monomials on the subset basis.

    The cap for each chord is the length of its fundamental cycle.  One walk
    over the chords builds every nonzero monomial, of every degree: each
    product so far is extended by each divided power of the next chord's
    basic flow up to its cap, so a shared prefix is multiplied once.  A
    zero product ends its branch.  Each product's table, keyed by subset
    mask, is a row of its degree's matrix.  The resulting sequence equals
    the graded rank sequence; it is returned with trailing zeros trimmed.
    """
    m = g.num_edges
    require_capacity(m)
    flows = basic_flow_circulations(g)
    products = [Circulation.unit(ZZ)]
    for c in sorted(flows):
        beta = flows[c]
        powers = [divided_power(beta, k) for k in range(1, len(beta.table) + 1)]
        for prod in list(products):
            for power in powers:
                ext = prod * power
                if ext.is_zero():
                    # (k+1) beta^(k+1) = beta^(k) beta and integer tables
                    # have no torsion, so every higher power gives zero too
                    break
                products.append(ext)
    rows: list[list[dict[int, int]]] = [[] for _ in range(m + 1)]
    for prod in products:
        rows[next(iter(prod.table)).bit_count()].append(prod.table)
    return list(trimmed(rank_int_rows(tables) for tables in rows))


@lru_cache(maxsize=64)
def subset_masks(m: int, j: int) -> tuple[int, ...]:
    """All j-element subsets of m positions as bit masks, ascending."""
    if j < 0 or j > m:
        return ()
    if j == 0:
        return (0,)
    masks = []
    v = (1 << j) - 1
    limit = 1 << m
    while v < limit:
        masks.append(v)
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r
    return tuple(masks)


# -- pseudopowers ----------------------------------------------------------


def macaulay_representation(a: int, j: int) -> list[tuple[int, int]]:
    """The unique expansion of a as a sum of binomials C(a_j, j) +
    C(a_{j-1}, j-1) + ... with strictly decreasing tops."""
    if a < 0 or j < 1:
        raise InputError("need a >= 0 and j >= 1")
    rep = []
    k = j
    rem = a
    while rem > 0:
        t = k
        while comb(t + 1, k) <= rem:
            t += 1
        rep.append((t, k))
        rem -= comb(t, k)
        k -= 1
    return rep


def pseudopower(a: int, j: int) -> int:
    """Macaulay growth bound: shift every binomial of the representation of
    ``a`` up by one in both arguments and re-sum.  Returns 0 for a = 0."""
    if a == 0:
        return 0
    return sum(comb(t + 1, k + 1) for t, k in macaulay_representation(a, j))


# -- structured verification -----------------------------------------------


def relation_membership_check(g: Graph) -> dict:
    """Verify that the canonical relation generators act as zero.

    Every fundamental-cycle flow, and every {-1,0,1} combination of two of
    them supported on a single cycle, is raised to all powers beyond its
    support size via repeated multiplication; each such power must vanish,
    and the power at the support size must not (over Z).  A dimension
    certificate (total monomial rank against the number of spanning
    subgraphs with full component count) rules out missed relations.
    """
    m = g.num_edges
    require_capacity(m)
    flows = basic_flow_circulations(g)
    chords = sorted(flows)
    gens: list[tuple[str, Circulation]] = []
    for c in chords:
        gens.append((f"beta[{c}]", flows[c]))
    # sign combinations of two or three fundamental flows whose support is a
    # single cycle (covers the symmetric-difference cycles and, e.g., the
    # outer triangle of K4)
    for size in (2, 3):
        for chosen in combinations(chords, size):
            for signs in product((1, -1), repeat=size - 1):
                cand = flows[chosen[0]]
                for c, sign in zip(chosen[1:], signs):
                    cand = cand + flows[c].scale(sign)
                if not cand.table:
                    continue
                if any(abs(v) > 1 for v in cand.table.values()):
                    continue
                if _supports_single_cycle(g, cand):
                    label = "".join(
                        [f"beta[{chosen[0]}]"]
                        + [f"{'+' if s > 0 else '-'}beta[{c}]"
                           for c, s in zip(chosen[1:], signs)])
                    gens.append((label, cand))
    results = []
    all_ok = True
    for label, theta in gens:
        ssize = len(theta.table)
        power = theta
        np_val = 0
        for k in range(1, m + 2):
            if power.is_zero():
                break
            np_val = k
            dp = divided_power(theta, k)
            if dp.scale(factorial(k)) != power:
                raise check_failed(
                    g, "divided power", f"{k}! times the divided power of "
                    f"{label} != its {k}-th power")
            power = power * theta
        vanishes = np_val <= ssize
        tight = np_val == ssize
        ok = vanishes and tight
        all_ok = all_ok and ok
        results.append({"generator": label, "support": ssize,
                        "nilpotence": np_val, "vanishes_beyond_support": vanishes})
    dims = monomial_dimensions(g)
    total = sum(dims)
    expected = int(tutte(g)(1, 2))
    cert_ok = total == expected
    return {
        "generators": results,
        "dimension_total": total,
        "spanning_subgraph_count": expected,
        "dimension_certified": cert_ok,
        "passed": all_ok and cert_ok,
    }


def _supports_single_cycle(g: Graph, theta: Circulation) -> bool:
    """Whether the supporting edges form one cycle: connected with every
    incident vertex of degree exactly two (a loop counts twice)."""
    edges = [g.edges[mask.bit_length() - 1][1:] for mask in theta.table]
    deg: dict[int, int] = {}
    for t, h in edges:
        deg[t] = deg.get(t, 0) + 1
        deg[h] = deg.get(h, 0) + 1
    return (all(d == 2 for d in deg.values())
            and _components(deg, edges)[0] == 1)


def verify_inequalities(g: Graph) -> CheckReport:
    """Numerical consequences of the algebra structure, checked on the
    computed rank sequence.  The log-concavity check is exploratory."""
    require_capacity(g.num_edges)
    raw = poincare(g)
    m = g.num_edges
    n = g.num_vertices
    k = g.num_components
    ell = len(g.cut_edges)
    top = m - ell
    d = list(raw) + [0] * max(0, top + 1 - len(raw))
    rep = CheckReport()

    d1 = d[1] if len(d) > 1 else 0
    rep.add("endpoint-values",
            d[0] == 1 and d1 == m - n + k and d[top] == 1,
            f"d0={d[0]}, d1={d1}, d_top={d[top]}")
    rep.add("support-interval",
            len(raw) == top + 1 and all(x > 0 for x in raw),
            f"nonzero degrees 0..{len(raw) - 1}, expected 0..{top}")
    ok = True
    for j in range(1, top):
        if d[j + 1] > pseudopower(d[j], j):
            ok = False
            break
    rep.add("pseudopower-growth", ok)

    bound_poly = [1]
    for flow in g.basic_flows().values():
        # +-1 on the fundamental cycle, 0 elsewhere: r is the cycle length
        r = len(flow) - flow.count(0)
        bound_poly = _poly_mul(bound_poly, [1] * (r + 1))
    ok = all(d[j] <= (bound_poly[j] if j < len(bound_poly) else 0)
             for j in range(len(d)))
    rep.add("cycle-length-product-bound", ok)

    girth = g.girth()
    limit = top if girth is None else min(girth, top)
    ok = all(d[j] == (1 if j == 0 else comb(d1 + j - 1, j))
             for j in range(limit + 1))
    rep.add("girth-range-binomial", ok,
            f"girth={'inf' if girth is None else girth}")

    half = top // 2
    mono = all(d[j] <= d[j + 1] for j in range(half))
    dual = all(d[j] <= d[top - j] for j in range(half + 1))
    rep.add("front-half-monotone", mono)
    rep.add("duality-bound", dual)

    logc = all(d[j] * d[j] >= d[j - 1] * d[j + 1] for j in range(1, top))
    rep.add("log-concavity", logc, exploratory=True)
    return rep


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out
