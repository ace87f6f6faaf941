"""Cross-validation suites: every identity the library is built around,
runnable per graph and over the whole small-multigraph corpus.

Orientation-invariance trials re-run the full pipeline on re-oriented
copies.  Rank equality per trial is established by an exact two-sided
certificate: a mod-p elimination of some of the rebuilt rows bounds the rank
from below, and explicitly verified integer kernel vectors bound it from
above, so equality of the two bounds proves the rank exactly; any
inconclusive certificate falls back to exact elimination.  No floating point
is involved anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .circulation import (Circulation, QQ, ZZ, basic_flow_circulations,
                          divided_power, monomial_dimensions,
                          relation_membership_check, subset_masks,
                          verify_inequalities)
from .errors import CheckError, FlowAlgError
from .graph import (Graph, build, cycle_graph, dipole_graph, disjoint_union,
                    one_point_union)
from .lattice import (characteristic_flow, lattice, theta_enumerate,
                      theta_product)
from .linalg import rank_int_rows
from .relations import (integral_circulations, rank_sequence, relation_matrix,
                        torsion_check)
from .report import CheckReport
from .tutte import complexity, poincare, tutte

_PRIME = 2_147_483_647


def trimmed(seq) -> tuple[int, ...]:
    out = list(seq)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


# -- mod-p helpers for the rank certificates --------------------------------


def _rank_mod_p(a: np.ndarray, p: int = _PRIME) -> int:
    """Row-reduction rank over F_p; a lower bound for the rational rank."""
    return len(_pivot_rows_mod_p(
        [enumerate(row) for row in np.asarray(a, dtype=np.int64).tolist()], p))


def _pivot_rows_mod_p(rows, p: int = _PRIME) -> list[int]:
    """Indices of the rows that are independent over F_p of the rows before
    them, for rows given as (column, value) pairs; their number is the rank
    over F_p.  Each row is reduced by the pivot rows of its leading column
    until it vanishes or opens a new pivot column; the rows here have few
    nonzero entries, so this beats dense elimination on matrices of a few
    hundred rows."""
    pivots: dict[int, dict[int, int]] = {}
    independent = []
    for idx, row in enumerate(rows):
        x = {c: v % p for c, v in row if v % p}
        while x:
            lead = min(x)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(x[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in x.items()}
                independent.append(idx)
                break
            f = x[lead]
            for c, v in pivot.items():
                w = (x.get(c, 0) - f * v) % p
                if w:
                    x[c] = w
                else:
                    x.pop(c, None)
    return independent


def _dense_matrix(rel) -> np.ndarray:
    m = np.zeros((len(rel.rows), rel.num_columns), dtype=np.int64)
    for i, row in enumerate(rel.rows):
        for col, val in row:
            m[i, col] = val
    return m


def _kernel_vectors_by_degree(g: Graph) -> dict[int, np.ndarray]:
    """For each degree, d_j independent integer circulation vectors taken
    from the basic-flow monomial tables (values are all +-1)."""
    m = g.num_edges
    flows = basic_flow_circulations(g)
    chords = sorted(flows)
    caps = [len(flows[c].table) for c in chords]
    powers = [[divided_power(flows[c], k) for k in range(caps[i] + 1)]
              for i, c in enumerate(chords)]
    out: dict[int, np.ndarray] = {}
    for j in range(m + 1):
        masks = subset_masks(m, j)
        col = {mask: i for i, mask in enumerate(masks)}
        rows = []
        for jvec in _compositions(j, caps):
            prod = Circulation.unit(ZZ)
            for idx, power in enumerate(jvec):
                if power:
                    prod = prod * powers[idx][power]
            if not prod.is_zero():
                dense = np.zeros(len(masks), dtype=np.int64)
                for mask, v in prod.table.items():
                    dense[col[mask]] = v
                rows.append(dense)
        if not rows:
            out[j] = np.zeros((0, len(masks)), dtype=np.int64)
            continue
        stacked = np.stack(rows)
        # greedy mod-p independent subset
        keep = _pivot_rows_mod_p([enumerate(r) for r in stacked.tolist()])
        out[j] = stacked[keep]
    return out


def _compositions(total, caps):
    if not caps:
        if total == 0:
            yield ()
        return
    for head in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - head, caps[1:]):
            yield (head,) + rest


def _reference_pivot_rows(g: Graph) -> dict[int, list[int]]:
    """For each degree, the indices of rows of the relation matrix of ``g``
    that are independent over F_p."""
    return {j: _pivot_rows_mod_p(relation_matrix(g, j).rows)
            for j in range(g.num_edges + 1)}


def _certified_rank_sequence(g2: Graph, expected: tuple[int, ...],
                             kernels: dict[int, np.ndarray],
                             flip_mask: int,
                             pivot_rows: dict[int, list[int]]) -> bool:
    """Exact check that the re-oriented graph has the expected rank
    sequence.

    For each degree the relation matrix is rebuilt through the normal
    pipeline.  Candidate kernel vectors for the flipped graph are the
    reference ones with coordinates rescaled by the flip parity; they are
    *verified* exactly (integer matrix product), so the certificate does not
    depend on how they were obtained.  Likewise the lower bound is the rank
    over F_p of the rebuilt rows at the reference graph's pivot-row indices:
    any subset of rows bounds the rank from below, whichever rows are
    chosen.  rank_p(rows) <= rank_Q(M) and verified kernels give
    rank_Q(M) <= ncols - d; matching bounds prove equality.  Falls back to
    exact elimination when inconclusive.
    """
    m = g2.num_edges
    for j in range(m + 1):
        rel = relation_matrix(g2, j)
        ncols = rel.num_columns
        target = ncols - expected[j]
        dense = _dense_matrix(rel)
        kern = kernels[j]
        if kern.shape[0]:
            signs = np.array(
                [-1 if (mask & flip_mask).bit_count() % 2 else 1
                 for mask in subset_masks(m, j)], dtype=np.int64)
            kern = kern * signs
        certified = False
        if kern.shape[0] == expected[j]:
            annihilated = (dense.shape[0] == 0
                           or not (dense @ kern.T).any())
            chosen = [rel.rows[i] for i in pivot_rows[j]
                      if i < len(rel.rows)]
            if (annihilated and len(_pivot_rows_mod_p(chosen)) == target
                    and _rank_mod_p(kern) == expected[j]):
                certified = True
        if not certified:
            exact = rank_int_rows(rel.sparse_rows(), ncols)
            if exact != target:
                return False
    return True


def _signed_diag_equivalent(g1, g2) -> bool:
    """Whether g2 == D g1 D for a +-1 diagonal D; such Gram matrices define
    isometric lattices, hence equal theta series."""
    n = len(g1)
    if len(g2) != n:
        return False
    sign = [0] * n
    for start in range(n):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            h = stack.pop()
            for k in range(n):
                if k == h or g1[h][k] == 0:
                    continue
                if abs(g1[h][k]) != abs(g2[h][k]):
                    return False
                s = sign[h] * (1 if g1[h][k] == g2[h][k] else -1)
                if sign[k] == 0:
                    sign[k] = s
                    stack.append(k)
                elif sign[k] != s:
                    return False
    for h in range(n):
        for k in range(n):
            if g2[h][k] != sign[h] * sign[k] * g1[h][k]:
                return False
    return True


# -- per-graph verification --------------------------------------------------


_UNION_PARTNERS = [
    ("edge", build([(1, 1, 2)])),
    ("loop", build([(1, 1, 1)])),
    ("triangle", cycle_graph(3)),
    ("double-edge", dipole_graph(2)),
]


def _poincare_poly(coeffs) -> tuple[int, ...]:
    return trimmed(coeffs)


def _poly_add(a, b, shift=0):
    out = [0] * max(len(a), len(b) + shift)
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i + shift] += x
    return trimmed(out)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def verify_graph(g: Graph, theta_bound=12, trials: int = 0, seed: int = 2024,
                 deep: bool = False) -> CheckReport:
    """Run the full identity and inequality suite on one graph."""
    rep = CheckReport()
    dp = _poincare_poly(poincare(g))

    ranks = rank_sequence(g)
    monos = monomial_dimensions(g)
    rep.add("oracle-tutte-vs-relations", dp == trimmed(ranks),
            f"tutte={dp}, relations={trimmed(ranks)}")
    rep.add("oracle-tutte-vs-monomials", dp == trimmed(monos),
            f"tutte={dp}, monomials={trimmed(monos)}")

    rep.add("torsion-free",
            all(torsion_check(g, j) for j in range(g.num_edges + 1)))

    ok = True
    for eid in g.edge_ids:
        if g.is_cut_edge(eid):
            ok = ok and (dp == _poincare_poly(poincare(g.delete([eid]))))
        else:
            lhs = dp
            rhs = _poly_add(poincare(g.delete([eid])),
                            poincare(g.contract([eid]).graph), shift=1)
            ok = ok and (lhs == rhs)
    rep.add("deletion-contraction", ok)

    ok = True
    new_eid = max(g.edge_ids, default=0) + 1
    for eid, tail, head in g.edges:
        doubled = Graph(g.vertices, g.edges + ((new_eid, tail, head),))
        lhs = _poincare_poly(poincare(doubled))
        contracted = poincare(g.contract([eid]).graph)
        rhs = _poly_add(_poly_add(dp, contracted, shift=1),
                        contracted, shift=2)
        ok = ok and (lhs == rhs)
    rep.add("doubled-edge", ok)

    ok = True
    v = min(g.vertices)
    for _, partner in _UNION_PARTNERS:
        glued = one_point_union(g, v, partner, min(partner.vertices))
        expect = _poly_mul(dp, _poincare_poly(poincare(partner)))
        ok = ok and (_poincare_poly(poincare(glued)) == expect)
        apart = disjoint_union(g, partner)
        ok = ok and (_poincare_poly(poincare(apart)) == expect)
    rep.add("one-point-union", ok)

    try:
        lat = lattice(g)
        rep.add("gram-determinant", lat.determinant == complexity(g))
    except CheckError as exc:
        rep.add("gram-determinant", False, str(exc))
        lat = None

    ok = True
    detail = ""
    kappa = complexity(g)
    for eid in g.edge_ids:
        if g.is_cut_edge(eid):
            continue
        try:
            flow = characteristic_flow(g, eid)  # asserts the potential laws
        except CheckError as exc:
            ok, detail = False, str(exc)
            break
        if flow.norm != Fraction(kappa, complexity(g.delete([eid]))):
            ok, detail = False, f"norm identity fails at edge {eid}"
            break
        rev = characteristic_flow(g, eid, direction=-1)
        if any(a + b != 0 for a, b in zip(flow.chi, rev.chi)):
            ok, detail = False, f"arc reversal does not negate at edge {eid}"
            break
        if lat is not None:
            pos = g.position(eid)
            for phi in lat.basis:
                lhs = sum(Fraction(x) * c for x, c in zip(phi, flow.chi))
                if lhs != phi[pos] * flow.norm:
                    ok, detail = False, f"projection law fails at edge {eid}"
                    break
            if not ok:
                break
    rep.add("characteristic-flows", ok, detail)

    try:
        tp = theta_product(g, theta_bound)
        te = theta_enumerate(g, theta_bound)
        even = all(c % 2 == 0 for e, c in te.terms if e > 0)
        rep.add("theta-product-vs-enumerate", tp == te,
                f"product={tp}, enumerate={te}" if tp != te else "")
        rep.add("theta-even-coefficients", even)
    except FlowAlgError as exc:
        rep.add("theta-product-vs-enumerate", False, str(exc))

    for check in verify_inequalities(g).checks:
        rep.checks.append(check)

    rng = random.Random(seed)
    ok = True
    for _ in range(4):
        subset = [v for v in g.vertices if rng.random() < 0.5]
        total = [0] * g.num_edges
        for v2 in subset:
            row = g.incidence_row(v2)
            total = [a + b for a, b in zip(total, row)]
        inside = set(subset)
        for i, (_, tail, head) in enumerate(g.edges):
            expect = ((1 if head in inside else 0)
                      - (1 if tail in inside else 0))
            if total[i] != expect:
                ok = False
    rep.add("vertex-cut-row-sums", ok)

    if trials:
        rep.add("orientation-invariance",
                orientation_invariance(g, trials, seed=seed,
                                       theta_bound=theta_bound))

    if deep:
        membership = relation_membership_check(g)
        rep.add("relation-membership", membership["passed"])
        rep.add("multiplication-rank", multiplication_rank_check(g))
    return rep


def orientation_invariance(g: Graph, trials: int, seed: int = 2024,
                           theta_bound=12) -> bool:
    """Re-run the pipeline on randomly re-oriented copies and demand
    identical rank sequence, Tutte specialization, Gram determinant and
    theta series.  Exact throughout (see module docstring).

    A trial whose re-oriented copy equals one already checked (the same
    flips, or flips that differ only on loops) is not run again: every
    stage is a deterministic function of the graph, so it would repeat the
    same answer."""
    ref_p = _poincare_poly(poincare(g))
    ref_d = rank_sequence(g)
    ref_lat = lattice(g)
    ref_theta = None  # computed only if a sign-equivalence check fails
    kernels = _kernel_vectors_by_degree(g)
    pivot_rows = _reference_pivot_rows(g)
    rng = random.Random(seed)
    ids = list(g.edge_ids)
    checked = set()
    for _ in range(trials):
        flip = [eid for eid in ids if rng.getrandbits(1)]
        g2 = g.reorient(flip)
        if g2 in checked:
            continue
        checked.add(g2)
        if _poincare_poly(poincare(g2)) != ref_p:
            return False
        if not _certified_rank_sequence(g2, ref_d, kernels, g.mask_of(flip),
                                        pivot_rows):
            return False
        lat2 = lattice(g2)
        if lat2.determinant != ref_lat.determinant:
            return False
        if not _signed_diag_equivalent(ref_lat.gram, lat2.gram):
            # inconclusive fast path: compare the series directly
            if ref_theta is None:
                ref_theta = theta_enumerate(g, theta_bound)
            if theta_enumerate(g2, theta_bound) != ref_theta:
                return False
    return True


def multiplication_rank_check(g: Graph) -> bool:
    """Rank of multiplication by the staggered-coefficient flow power from
    degree j into the complementary degree equals d_j, for every j up to the
    middle."""
    d = _poincare_poly(poincare(g))
    top = len(d) - 1
    m = g.num_edges
    flows = basic_flow_circulations(g, QQ)
    chords = sorted(flows)
    phi = Circulation(QQ, {})
    for i, c in enumerate(chords, start=1):
        phi = phi + flows[c].scale(3 ** i)
    for j in range(top // 2 + 1):
        s = top - 2 * j
        power = Circulation.unit(QQ)
        for _ in range(s):
            power = power * phi
        power = power.scale(Fraction(1, _fact(s)))
        basis = [_coords_to_circulation(g, j, vec)
                 for vec in integral_circulations(g, j)]
        masks = subset_masks(m, top - j)
        col = {mask: i for i, mask in enumerate(masks)}
        rows = []
        for theta in basis:
            image = theta * power
            dense = [Fraction(0)] * len(masks)
            for mask, val in image.table.items():
                if mask in col:
                    dense[col[mask]] = val
            rows.append(dense)
        want = d[j] if j < len(d) else 0
        got = _rank_fractions(rows)
        if got != want:
            return False
    return True


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _coords_to_circulation(g, j, vec):
    masks = subset_masks(g.num_edges, j)
    return Circulation(QQ, {mask: v for mask, v in zip(masks, vec) if v})


def _rank_fractions(rows) -> int:
    if not rows:
        return 0
    scaled = []
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        scaled.append({i: int(x * denom) for i, x in enumerate(row) if x})
    return rank_int_rows(scaled, len(rows[0]))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- corpus runner -----------------------------------------------------------


def run_corpus(max_edges: int, theta_bound=12, trials: int = 0,
               deep: bool = False, progress=None) -> dict:
    """Verify every connected multigraph with up to ``max_edges`` edges.

    Returns an aggregate report: graph count, check count, and the failures
    (graph edge list plus check name)."""
    from .corpus import connected_multigraphs

    graphs = connected_multigraphs(max_edges)
    failures = []
    exploratory_failures = []
    total_checks = 0
    for idx, g in enumerate(graphs):
        report = verify_graph(g, theta_bound=theta_bound, trials=trials,
                              deep=deep)
        total_checks += len(report.checks)
        for c in report.checks:
            if not c.passed:
                entry = {"graph": [list(e) for e in g.edges],
                         "vertices": list(g.vertices),
                         "check": c.name, "detail": c.detail}
                if c.exploratory:
                    exploratory_failures.append(entry)
                else:
                    failures.append(entry)
        if progress is not None:
            progress(idx + 1, len(graphs))
    return {
        "graphs": len(graphs),
        "max_edges": max_edges,
        "checks_run": total_checks,
        "failures": failures,
        "exploratory_failures": exploratory_failures,
        "passed": not failures,
    }
