"""The Euclidean lattice of integer flows: Gram data, characteristic flows
and potentials, coset systems, and the theta function by two independent
routes.

The lattice basis is the family of basic flows of the non-forest edges in
ascending id order.  Its Gram determinant equals the number of maximal
forests; that identity, the norm identity for characteristic flows, and the
agreement of the factored theta product with brute-force enumeration are all
asserted where they are cheap and verified corpus-wide by the test suite.

Characteristic flows are held in integers, numerators over one positive
denominator.  Every edge's flow, in both directions, is read from one
fraction-free solve of the grounded Laplacian per graph
(:func:`_projection`, which keeps the projection of the last graph).  A
coset system starts from that solve too: deleting a chord is a rank-one
downdate of the projection (:func:`_delete_from_projection`), so every
subgraph it visits costs O(m^2) integer work and no solve, and the graph's
own projection stays cached.  The checks on a flow do not go through that
solve: the potential is integrated along the edges and checked against
every edge and the norm, and ``verify_graph`` checks the norm against
Tutte's forest counts and the projection law against the lattice basis,
all in integers.

A coset system can take the chords in any order; the number of coset
representatives, the product of the chords' integrality indices, depends on
it.  :func:`coset_system` reports the ascending order by default (this is
what ``flowalg lattice`` prints), while :func:`theta_product` takes the
greedy order, which takes next the chord of smallest index and usually
needs far fewer representatives (1,890 instead of 74,340 on the left
Figure 1 graph).  It does not sum over the representatives one by one: the
factor of each chord depends only on the coefficients of the chords taken
up to it, so the sum is a recursion over the chords whose states, residues
mod the chord weights, merge (at most 36 of them on that graph).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from . import errors
from .errors import CapacityError, InputError, check_failed, require_bound
from .graph import Graph
from .linalg import det_int, enumerate_by_norm, min_norm_affine
from .series import QSeries, psi_series
from .tutte import complexity, tutte


class FlowLattice(NamedTuple):
    chords: tuple[int, ...]                    # non-forest edge ids, ascending
    basis: tuple[tuple[int, ...], ...]         # basic flows over edge positions
    gram: tuple[tuple[int, ...], ...]
    determinant: int


class _Flow(NamedTuple):
    edge: int
    direction: int
    num: tuple[int, ...]
    pot: dict[int, int]
    den: int


class CharacteristicFlow(_Flow):
    """Minimum-norm rational flow carrying unit value on one edge, held in
    integers: the numerators ``num`` of chi and ``pot`` of the potential,
    over the one positive denominator ``den``, in lowest terms.  The flow
    keeps its own copy of ``pot``.

    ``chi`` is expressed in reference coordinates, so ``chi[e]`` equals
    ``direction`` (+1 along the stored arc, -1 against it).  ``potential``
    is the vertex function vanishing at the arc's head whose coboundary
    reproduces ``chi`` off the distinguished edge.  ``chi``, ``potential``
    and ``norm`` = <chi, chi> are exact ``Fraction``s built on demand.
    """
    __slots__ = ()

    def __new__(cls, edge, direction, num, pot, den):
        return super().__new__(cls, edge, direction, num, dict(pot), den)

    @property
    def chi(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def potential(self) -> dict[int, Fraction]:
        return {v: Fraction(p, self.den) for v, p in self.pot.items()}

    @property
    def norm(self) -> Fraction:
        return Fraction(sum(x * x for x in self.num), self.den ** 2)


class CosetSystem(NamedTuple):
    chords: tuple[int, ...]                       # in the order they were taken
    indices: tuple[int, ...]
    rescaled: tuple[tuple[int, ...], ...]         # phi_i = r_i * chi_i
    weights: tuple[int, ...]                      # w_i = <phi_i, phi_i>
    representatives: tuple[tuple[int, ...], ...]


def _dot(u, v):
    return sum(map(mul, u, v))


@lru_cache(maxsize=1)
def _projection(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``min_norm_affine`` of the incidence matrix of g, grounded at its
    roots (``Graph.grounded_incidence``; the rows of a component sum to
    zero, so the flow space is the same): den times the projection onto the
    flow space, one row per edge position.  The grounded Laplacian is
    nonsingular.  The projection of the last graph is kept, so the edges,
    both directions and the coset system of one graph share one solve."""
    return min_norm_affine(g.grounded_incidence(), g.num_edges)


def _delete_from_projection(proj, p: int):
    """The projection of a graph with the edge at position p deleted, read
    from the graph's projection ``proj = (den, u)``, u = den P, without a
    solve: the flows of the subgraph are those of the graph that vanish at
    p, so its projection is the rank-one downdate P - P e_p e_p^T P / P_pp,
    that is (u u_pp - u_p u_p^T) / (den u_pp), with row and column p,
    now zero, removed and the gcd divided out.  The edge must lie on a
    cycle (u_pp > 0)."""
    den, u = proj
    up = u[p]
    upp = up[p]
    rows = [[x * upp - a * b for k, (x, b) in enumerate(zip(row, up))
             if k != p]
            for i, (row, a) in enumerate(zip(u, up)) if i != p]
    den *= upp
    k = gcd(den, *(x for row in rows for x in row))
    return den // k, tuple(tuple(x // k for x in row) for row in rows)


def characteristic_flow(g: Graph, eid: int, direction: int = 1
                        ) -> CharacteristicFlow:
    """Unit electric current through one edge: the unique minimum-norm
    rational flow with value 1 on the chosen arc.

    It is the projection of the unit vector of the edge onto the flow space,
    rescaled to value 1 on the edge: x = e - B^T p, where B is the incidence
    matrix and the vertex potential p solves L p = B e for the graph
    Laplacian L = B B^T, so that x_f = [f = e] - (p_head(f) - p_tail(f)).
    The row u of the edge in the graph's :func:`_projection`, one
    fraction-free integer solve of the Laplacian system for all edges, is
    an integer multiple of that projection, so chi = u / u_e.

    Raises ``InputError`` for cut-edges, where every flow vanishes on the
    edge and the constraint is infeasible.
    """
    if direction not in (1, -1):
        raise InputError("direction must be +1 or -1")
    if g.is_cut_edge(eid):
        raise InputError(
            f"edge {eid} is a cut-edge: the flow space forces value 0 on it")
    return _flow_from_row(g, eid, direction,
                          _projection(g)[1][g.position(eid)])


def _flow_from_row(g: Graph, eid: int, direction: int, u
                   ) -> CharacteristicFlow:
    """The characteristic flow of an edge of g from the edge's row u of a
    projection of g (an integer multiple of it), with every check a flow
    passes: a positive entry on the edge, and the potential, integrated
    along the other edges, against every edge and the norm."""
    _, tail, head = g.edge(eid)
    pos = g.position(eid)
    if u[pos] <= 0:
        raise check_failed(g, "projection", f"the projection of edge {eid} "
                           f"has entry {u[pos]} on the edge")
    k = gcd(*u)
    den = u[pos] // k
    num = [direction * x // k for x in u]
    head_a = head if direction == 1 else tail
    tail_a = tail if direction == 1 else head
    pot = _integrate_potential(g, eid, num, head_a)
    # <chi, chi> = 1 + potential at the arc's tail, times den^2
    sq = sum(x * x for x in num)
    if sq != den * (den + pot[tail_a]):
        raise check_failed(g, "potential norm",
                           f"norm {Fraction(sq, den * den)} != 1 + potential "
                           f"{Fraction(pot[tail_a], den)} at vertex {tail_a}")
    return CharacteristicFlow(eid, direction, tuple(num), pot, den)


def _integrate_potential(g: Graph, eid: int, num, base: int
                         ) -> dict[int, int]:
    """Vertex potential numerators, over the flow's denominator, with value
    0 at ``base``: integrate the flow numerators ``num`` along edges other
    than ``eid``; verified against every edge afterwards."""
    potential = {v: None for v in g.vertices}
    potential[base] = 0
    queue = [base]
    while queue:
        nxt = []
        for u in queue:
            for other_eid, other in g.adjacency[u]:
                if other_eid == eid or potential[other] is not None:
                    continue
                _, t, h = g.edge(other_eid)
                val = num[g.position(other_eid)]
                potential[other] = (potential[u] + val if other == h
                                    else potential[u] - val)
                nxt.append(other)
        queue = nxt
    for v in g.vertices:
        if potential[v] is None:
            potential[v] = 0
    for other_eid, t, h in g.edges:
        if other_eid == eid or t == h:
            continue
        if num[g.position(other_eid)] != potential[h] - potential[t]:
            raise check_failed(
                g, "potential difference", f"flow numerator "
                f"{num[g.position(other_eid)]} on edge {other_eid} != "
                f"potential difference {potential[h] - potential[t]}")
    return potential


def lattice(g: Graph) -> FlowLattice:
    """Basic-flow basis and Gram matrix; the determinant is computed exactly
    and asserted equal to the number of maximal forests."""
    flows = g.basic_flows()
    chords = tuple(flows)
    basis = list(flows.values())
    gram = [[_dot(b1, b2) for b2 in basis] for b1 in basis]
    det = det_int(gram)
    kappa = complexity(g)
    if det != kappa:
        raise check_failed(g, "Gram determinant",
                           f"Gram determinant {det} != forest count {kappa}")
    return FlowLattice(chords, tuple(map(tuple, basis)),
                       tuple(map(tuple, gram)), det)


def _next_chord(sub: Graph, proj, remaining: list[int], greedy: bool):
    """The next chord for a coset system, with its characteristic flow in
    ``sub``, read from ``proj``, the projection of ``sub``, and that flow's
    integrality index, as ``(index, chord, flow)``.

    ``remaining`` is ascending, so without ``greedy`` the first chord is
    taken; with it, the first chord of smallest index, and a chord of
    index 1 ends the scan at once.
    """
    best = None
    for c in remaining:
        flow = _flow_from_row(sub, c, 1, proj[1][sub.position(c)])
        # _flow_from_row divides out gcd(u): num has gcd 1, so r = den
        r = flow.den
        if best is None or r < best[0]:
            best = (r, c, flow)
        if not greedy or r == 1:
            break
    return best


def coset_system(g: Graph, *, greedy: bool = False) -> CosetSystem:
    """Orthogonal characteristic flows of the chords in successively
    edge-deleted subgraphs, their integrality indices, and explicit coset
    representatives of the subgroup they generate.

    By default the chords are taken in ascending id order, the order
    ``flowalg lattice`` reports.  With ``greedy=True`` each step takes the
    remaining chord whose characteristic flow in the current subgraph has
    the smallest index (ties to the smaller id); :func:`theta_product` uses
    this order because it keeps the number of representatives small.  Any
    order is valid: the characteristic flow of a chord lies in the span of
    its own basic flow (coefficient 1) and those of the chords taken after
    it, so the rescaled flows are triangular with diagonal r_i over the
    basic flows in the chosen order.

    The flows come from one Laplacian solve, g's :func:`_projection`: each
    subgraph's projection is read from the one before it by
    :func:`_delete_from_projection`, and each flow from its row by the
    code of :func:`characteristic_flow`, with the same checks.

    Raises ``CapacityError`` before building any representative if their
    number exceeds ``MAX_COSET_REPRESENTATIVES``.
    """
    flows = g.basic_flows()
    remaining = list(flows)
    chords, indices, rescaled = [], [], []
    sub, proj = g, _projection(g)
    while remaining:
        r, c, flow = _next_chord(sub, proj, remaining, greedy)
        remaining.remove(c)
        # phi = r * chi, zero on the chords deleted before this one
        phi = [0] * g.num_edges
        for eid, x in zip(sub.edge_ids, flow.num):
            x, rest = divmod(x * r, flow.den)
            if rest:
                raise check_failed(g, "index rescaling",
                                   "rescaled flow has a non-integer entry")
            phi[g.position(eid)] = x
        chords.append(c)
        indices.append(r)
        rescaled.append(tuple(phi))
        proj = _delete_from_projection(proj, sub.position(c))
        sub = sub.delete([c])
    expected = prod(indices)
    if expected > errors.MAX_COSET_REPRESENTATIVES:
        raise CapacityError(
            f"coset system needs {expected} representatives; at most "
            f"{errors.MAX_COSET_REPRESENTATIVES} are supported")
    weights = [_dot(phi, phi) for phi in rescaled]
    for h in range(len(rescaled)):
        for k in range(h + 1, len(rescaled)):
            if _dot(rescaled[h], rescaled[k]) != 0:
                raise check_failed(
                    g, "orthogonality", f"characteristic flows of chords "
                    f"{chords[h]} and {chords[k]} are not orthogonal")
    basis = [flows[c] for c in chords]
    reps = [tuple(0 for _ in range(g.num_edges))]
    for b, r in zip(basis, indices):
        reps = [tuple(x + gi * bi for x, bi in zip(vec, b))
                for vec in reps for gi in range(r)]
    prod_w = prod(weights)
    kappa = complexity(g)
    if prod_w != kappa * expected * expected:
        raise check_failed(
            g, "weight identity", f"product of weights {prod_w} != "
            f"forest count {kappa} times {expected}^2")
    return CosetSystem(tuple(chords), tuple(indices), tuple(rescaled),
                       tuple(weights), tuple(reps))


def theta_product(g: Graph, bound) -> QSeries:
    """Theta function of the integer flow lattice via the orthogonal coset
    factorization: a sum over the coset representatives
    lambda = sum_i g_i b_i (0 <= g_i < r_i, b_i the basic flow of the i-th
    chord) of the products over k of psi(<lambda, phi_k> / w_k mod 1, w_k).

    The sum is taken by a recursion over the chords, in the greedy order of
    :func:`coset_system`.  For i > k, b_i vanishes on the chords 1..k: it
    is a flow of the subgraph in which phi_k was computed, with value 0 on
    chord k, so <b_i, phi_k> = 0 (checked).  So the factor of chord k
    depends only on g_1..g_k.  After choosing g_1..g_i, a state is the
    residues of <lambda, phi_k> mod w_k for the chords k > i not yet taken;
    states that agree merge and their series add, and the factor of chord i
    multiplies each merged series once.  Each psi series is computed once
    per call for each (translation mod 1, weight): psi sums over all
    integers n, so it does not change when the translation moves by an
    integer.  Inner series are dicts keyed by exponent times lcm(w), which
    are integers.  ``errors.require_bound`` checks the bound.
    """
    require_bound("theta bound", bound)
    system = coset_system(g, greedy=True)
    flows = g.basic_flows()
    phis, weights = system.rescaled, system.weights
    n = len(phis)
    # pairing[i][k] = <b_i, phi_k>, zero for i > k
    pairing = [[_dot(flows[c], phi) for phi in phis] for c in system.chords]
    for i in range(n):
        for k in range(i):
            if pairing[i][k]:
                raise check_failed(
                    g, "triangularity", f"basic flow of chord "
                    f"{system.chords[i]} has product {pairing[i][k]} with the "
                    f"rescaled flow of chord {system.chords[k]}, taken "
                    f"before it")
    scale = lcm(*weights)
    limit = floor(bound * scale)
    psi_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def psi(s: int, w: int) -> list[tuple[int, int]]:
        """psi(s / w, w) as ascending (scaled exponent, coefficient)."""
        terms = psi_cache.get((s, w))
        if terms is None:
            terms = []
            for e, c in psi_series(Fraction(s, w), w, bound).terms:
                e *= scale
                if e.denominator != 1:
                    raise check_failed(g, "psi exponent scaling",
                                       f"psi exponent {e / scale} times "
                                       f"{scale} is not an integer")
                terms.append((int(e), c))
            psi_cache[(s, w)] = terms
        return terms

    states: dict[tuple[int, ...], dict[int, int]] = {(0,) * n: {0: 1}}
    for i in range(n):
        steps, mods = pairing[i][i:], weights[i:]
        # residues of chords i.. after choosing g_i, with the series summed
        merged: dict[tuple[int, ...], dict[int, int]] = {}
        for res, series in states.items():
            for gi in range(system.indices[i]):
                key = tuple((s + gi * d) % w
                            for s, d, w in zip(res, steps, mods))
                acc = merged.get(key)
                if acc is None:
                    merged[key] = dict(series)
                else:
                    for e, c in series.items():
                        acc[e] = acc.get(e, 0) + c
        states = {}
        for key, series in merged.items():
            factor = psi(key[0], mods[0])
            acc = states.setdefault(key[1:], {})
            for e1, c1 in series.items():
                room = limit - e1
                for e2, c2 in factor:
                    if e2 > room:
                        break
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    total = QSeries.from_dict(
        {Fraction(e, scale): c for e, c in states[()].items()}, bound)
    if not total.has_integer_exponents():
        raise check_failed(g, "integer exponents",
                           "theta product has a non-integer exponent")
    if total.coefficient(0) != 1:
        raise check_failed(g, "constant term",
                           f"theta product constant term is "
                           f"{total.coefficient(0)}, not 1")
    return total


def theta_enumerate(g: Graph, bound) -> QSeries:
    """Theta function by direct enumeration of all lattice vectors of norm
    up to the bound; the oracle route.

    :func:`~flowalg.linalg.enumerate_by_norm` finds the vectors by an
    integer search over the Bareiss elimination of the Gram matrix; each
    vector's norm v^T G v is then recomputed in integers from the Gram
    matrix itself, and a vector above the bound is a failed check.  With
    v = (t, s), t the first coordinate, v^T G v = G_00 t^2 + 2 t <G_0, s> +
    s^T G' s, where G_0 is the rest of G's first row and G' the Gram matrix
    on s; the last two terms are recomputed only when s changes, which the
    search's order (first coordinate innermost) makes rare.  Any order of
    the vectors gives the same result.  ``require_bound`` checks the bound."""
    require_bound("theta bound", bound)
    lat = lattice(g)
    limit = floor(bound)  # norms are integers
    if not lat.gram:  # no chords: the zero vector alone
        return QSeries.from_dict({0: len(enumerate_by_norm([], bound))}, bound)
    acc: dict[int, int] = {}
    g00, g0 = lat.gram[0][0], lat.gram[0][1:]
    rest = [row[1:] for row in lat.gram[1:]]
    s = None
    for vec in enumerate_by_norm([list(row) for row in lat.gram], bound):
        if vec[1:] != s:
            s = vec[1:]
            cross = 2 * _dot(g0, s)
            tail = sum(x * _dot(row, s) for x, row in zip(s, rest) if x)
        t = vec[0]
        norm = (g00 * t + cross) * t + tail
        if norm > limit:
            raise check_failed(g, "enumeration bound",
                               f"vector {vec} has norm {norm} > {bound}")
        acc[norm] = acc.get(norm, 0) + 1
    return QSeries.from_dict(acc, bound)


def flows_of_norm(g: Graph, s: int) -> int:
    """Number of integer flows of squared norm exactly s (a bound)."""
    require_bound("norm", s)
    return theta_enumerate(g, s).coefficient(s)


def codichromatic_compare(g1: Graph, g2: Graph, bound) -> dict:
    """Compare two graphs: equality of Tutte polynomials and the first
    exponent at which their theta series differ (None if they agree up to
    the bound), the bound checked before any work."""
    require_bound("theta bound", bound)
    t_equal = tutte(g1) == tutte(g2)
    theta1 = theta_enumerate(g1, bound)
    theta2 = theta_enumerate(g2, bound)
    first = theta1.first_difference(theta2)
    return {
        "tutte_equal": t_equal,
        "theta_first_difference": first,
        "theta_left": theta1,
        "theta_right": theta2,
    }
