"""Cross-validation suites: every identity the library is built around,
runnable per graph and over the whole small-multigraph corpus.

Orientation-invariance trials re-run the full pipeline on re-oriented
copies.  A copy's rank sequence passes when its own class table follows the
sign rule against the reference table, or else when the copy's own relation
matrices, ranked by exact elimination, give the reference sequence; the
table and its sign rule are described in ``flowalg.relations``.

Re-orienting keeps the maximal forest and the chords, and each basic flow
becomes s_c D beta_c, with D the +-1 diagonal of the flips and s_c = -1
exactly when the chord c is flipped.  So a faithful Gram matrix is S G S for
the known +-1 diagonal S of the flipped chords, which defines an isometric
lattice and hence the same theta series; a Gram of any other form has its
theta series enumerated and compared.  No floating point is involved
anywhere.
"""

from __future__ import annotations

import json
import os
import random
import threading

from .circulation import (Circulation, ZZ, _poly_mul, basic_flow_circulations,
                          monomial_dimensions, relation_membership_check,
                          verify_inequalities)
from .errors import CheckError, FlowAlgError, InputError, require_bound
from .graph import (Graph, build, cycle_graph, dipole_graph, disjoint_union,
                    one_point_union)
from .lattice import (_dot, characteristic_flow, lattice, theta_enumerate,
                      theta_product)
from .linalg import rank_int_rows
from .relations import (_class_table, _is_flipped_table,
                        integral_circulations, rank_sequence, torsion_check)
from .report import CheckReport
from .tutte import complexity, poincare, trimmed


# -- per-graph verification --------------------------------------------------


# seeds the vertex-cut sample and the orientation trials
_SEED = 2024

_UNION_PARTNERS = [
    ("edge", build([(1, 1, 2)])),
    ("loop", build([(1, 1, 1)])),
    ("triangle", cycle_graph(3)),
    ("double-edge", dipole_graph(2)),
]


def _poly_add(a, b, shift=0):
    out = [0] * max(len(a), len(b) + shift)
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i + shift] += x
    return trimmed(out)


def verify_graph(g: Graph, theta_bound=12, trials: int = 0,
                 deep: bool = False) -> CheckReport:
    """Run the full identity and inequality suite on one graph.  A graph
    with no vertex (the one-point-union check needs a vertex to glue at)
    raises ``InputError``, the theta bound and then the trial count are
    refused as ``errors.require_bound`` says, and a coset system over
    ``MAX_COSET_REPRESENTATIVES`` raises ``CapacityError``, before any
    check runs."""
    if not g.vertices:
        raise InputError("verify needs a graph with at least one vertex")
    require_bound("theta bound", theta_bound)
    require_bound("trial count", trials)
    # the theta product comes first, so that a coset system over its
    # ceiling is refused (CapacityError) before any other work is done
    try:
        tp = theta_product(g, theta_bound)
        tp_error = None
    except CheckError as exc:
        tp, tp_error = None, exc
    rep = CheckReport()
    dp = trimmed(poincare(g))

    ranks = rank_sequence(g)
    monos = monomial_dimensions(g)
    rep.add("oracle-tutte-vs-relations", dp == trimmed(ranks),
            f"tutte={dp}, relations={trimmed(ranks)}")
    rep.add("oracle-tutte-vs-monomials", dp == trimmed(monos),
            f"tutte={dp}, monomials={trimmed(monos)}")

    rep.add("torsion-free",
            all(torsion_check(g, j) for j in range(g.num_edges + 1)))

    cut = g.cut_edges
    deleted = {eid: g.delete([eid]) for eid in g.edge_ids}
    split_ok = doubled_ok = True
    new_eid = max(g.edge_ids, default=0) + 1
    for eid, tail, head in g.edges:
        contracted = poincare(g.contract([eid]))
        if eid in cut:
            split = trimmed(poincare(deleted[eid]))
        else:
            split = _poly_add(poincare(deleted[eid]), contracted, shift=1)
        split_ok = split_ok and dp == split
        doubled = Graph(g.vertices, g.edges + ((new_eid, tail, head),))
        rhs = _poly_add(_poly_add(dp, contracted, shift=1), contracted, shift=2)
        doubled_ok = doubled_ok and trimmed(poincare(doubled)) == rhs
    rep.add("deletion-contraction", split_ok)
    rep.add("doubled-edge", doubled_ok)

    ok = True
    v = min(g.vertices)
    for _, partner in _UNION_PARTNERS:
        glued = one_point_union(g, v, partner, min(partner.vertices))
        expect = trimmed(_poly_mul(dp, trimmed(poincare(partner))))
        ok = ok and (trimmed(poincare(glued)) == expect)
        apart = disjoint_union(g, partner)
        ok = ok and (trimmed(poincare(apart)) == expect)
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
        if eid in cut:
            continue
        try:
            flow = characteristic_flow(g, eid)  # asserts the potential laws
        except CheckError as exc:
            ok, detail = False, str(exc)
            break
        # <chi, chi> = sq / den^2 against kappa(X) / kappa(X minus e)
        sq = sum(x * x for x in flow.num)
        if sq * complexity(deleted[eid]) != kappa * flow.den ** 2:
            ok, detail = False, f"norm identity fails at edge {eid}"
            break
        rev = characteristic_flow(g, eid, direction=-1)
        if rev.den != flow.den or any(a + b for a, b in zip(flow.num,
                                                            rev.num)):
            ok, detail = False, f"arc reversal does not negate at edge {eid}"
            break
        if lat is not None:
            # <phi, chi> = phi_e <chi, chi>, times den^2
            pos = g.position(eid)
            if any(_dot(phi, flow.num) * flow.den != phi[pos] * sq
                   for phi in lat.basis):
                ok, detail = False, f"projection law fails at edge {eid}"
                break
    rep.add("characteristic-flows", ok, detail)

    try:
        if tp_error is not None:
            raise tp_error
        te = theta_enumerate(g, theta_bound)
        even = all(c % 2 == 0 for e, c in te.terms if e > 0)
        rep.add("theta-product-vs-enumerate", tp == te,
                f"product={tp}, enumerate={te}" if tp != te else "")
        rep.add("theta-even-coefficients", even)
    except CheckError as exc:
        rep.add("theta-product-vs-enumerate", False, str(exc))

    for check in verify_inequalities(g).checks:
        rep.checks.append(check)

    rng = random.Random(_SEED)
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
                orientation_invariance(g, trials, theta_bound=theta_bound))

    if deep:
        membership = relation_membership_check(g)
        rep.add("relation-membership", membership["passed"])
        rep.add("multiplication-rank", multiplication_rank_check(g))
    return rep


def orientation_invariance(g: Graph, trials: int, seed: int = _SEED,
                           theta_bound=12) -> bool:
    """Re-run the pipeline on randomly re-oriented copies and demand
    identical rank sequence, Tutte specialization, Gram determinant and
    theta series.  Exact throughout (see module docstring): the theta
    series are enumerated only for a Gram matrix that is not S G S, with S
    the +-1 diagonal of the flipped chords.

    A trial whose re-oriented copy equals one already checked (the same
    flips, or flips that differ only on loops) is not run again: every
    stage is a deterministic function of the graph, so it would repeat the
    same answer.  The theta bound and then the trial count are refused as
    ``errors.require_bound`` says, before any trial runs."""
    require_bound("theta bound", theta_bound)
    require_bound("trial count", trials)
    ref_p = trimmed(poincare(g))
    ref_d = rank_sequence(g)
    ref = _class_table(g)  # the table rank_sequence has just ranked
    ref_lat = lattice(g)
    ref_theta = None  # computed only if a Gram fails the sign rule
    rng = random.Random(seed)
    ids = list(g.edge_ids)
    checked = set()
    for _ in range(trials):
        flip = [eid for eid in ids if rng.getrandbits(1)]
        g2 = g.reorient(flip)
        if g2 in checked:
            continue
        checked.add(g2)
        if trimmed(poincare(g2)) != ref_p:
            return False
        if not (_is_flipped_table(_class_table(g2), ref, g.mask_of(flip))
                or rank_sequence(g2) == ref_d):
            return False
        lat2 = lattice(g2)
        if lat2.determinant != ref_lat.determinant:
            return False
        sign = [-1 if c in flip else 1 for c in ref_lat.chords]
        if lat2.gram != tuple(tuple(s * t * x for t, x in zip(sign, row))
                              for s, row in zip(sign, ref_lat.gram)):
            # not the expected signed copy: compare the series directly
            if ref_theta is None:
                ref_theta = theta_enumerate(g, theta_bound)
            if theta_enumerate(g2, theta_bound) != ref_theta:
                return False
    return True


def multiplication_rank_check(g: Graph) -> bool:
    """Rank of multiplication by the staggered-coefficient flow power from
    degree j into the complementary degree equals d_j, for every j up to the
    middle.  The divided power phi^s / s! has the rank of phi^s, so the
    images are ranked over the integers.  The powers of phi come from one
    chain of products, and the images' tables are ranked as they are."""
    d = trimmed(poincare(g))
    top = len(d) - 1
    flows = basic_flow_circulations(g)
    phi = Circulation(ZZ, {})
    for i, c in enumerate(sorted(flows), start=1):
        phi = phi + flows[c].scale(3 ** i)
    powers = [Circulation.unit(ZZ)]
    for _ in range(top):
        powers.append(powers[-1] * phi)
    for j in range(top // 2 + 1):
        rows = [(psi * powers[top - 2 * j]).table
                for psi in integral_circulations(g, j)]
        if rank_int_rows(rows) != d[j]:
            return False
    return True


# -- corpus runner -----------------------------------------------------------


def run_corpus(max_edges: int, theta_bound=12, trials: int = 0,
               deep: bool = False) -> dict:
    """Verify every connected multigraph with up to ``max_edges`` edges.

    Returns the results of ``flowalg corpus``: graph count, check count, and
    the failures (graph edge list plus check name), exploratory ones apart.
    The theta bound and then the trial count are refused as
    ``errors.require_bound`` says, before the corpus is generated.

    The graphs are verified on every CPU the process may use (see
    ``_verify_shares``).  The results, and the error raised when a graph
    raises one, are those of verifying the graphs one by one in corpus
    order."""
    from .corpus import connected_multigraphs

    require_bound("theta bound", theta_bound)
    require_bound("trial count", trials)
    graphs = connected_multigraphs(max_edges)
    args = (theta_bound, trials, deep)
    outcomes = _verify_shares(graphs, _worker_count(len(graphs)), args)
    failures = []
    exploratory_failures = []
    total_checks = 0
    for g, outcome in zip(graphs, outcomes):
        if outcome is None:
            # left by a share that raised or was lost: verifying it here, in
            # corpus order, raises the error of the first graph that has one
            outcome = _outcome(g, args)
        count, failed = outcome
        total_checks += count
        for name, detail, exploratory in failed:
            entry = {"graph": [list(e) for e in g.edges],
                     "vertices": list(g.vertices),
                     "check": name, "detail": detail}
            if exploratory:
                exploratory_failures.append(entry)
            else:
                failures.append(entry)
    return {
        "graphs": len(graphs),
        "max-edges": max_edges,
        "checks-run": total_checks,
        "failures": failures,
        "exploratory-failures": exploratory_failures,
    }


def _outcome(g: Graph, args: tuple) -> list:
    """What ``run_corpus`` keeps of one graph's report, in a form that JSON
    carries unchanged: ``[check count, [[name, detail, exploratory], ...]]``
    with the failed checks in report order."""
    theta_bound, trials, deep = args
    report = verify_graph(g, theta_bound=theta_bound, trials=trials, deep=deep)
    return [len(report.checks), [[c.name, c.detail, c.exploratory]
                                 for c in report.checks if not c.passed]]


def _worker_count(n: int) -> int:
    """Processes to verify ``n`` > 0 graphs with: one per CPU this process
    may run on, at most one per graph.  1 where the platform cannot fork or name
    those CPUs, or where another thread runs, since a forked child holds a
    copy of the calling thread only."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n)


def _verify_shares(graphs: list, workers: int, args: tuple) -> list:
    """The outcomes (see ``_outcome``) of ``graphs`` in corpus order, with
    None for a graph left unverified.

    Share k is the stride ``graphs[k::workers]``.  The parent verifies share
    0 while a forked child verifies each other share.  A child stops before
    its first graph that raises; a share whose fork fails is left to the
    caller.  When a graph of share 0 raises a ``FlowAlgError``, the children
    are killed, and the rest is left to the caller, which meets the earlier
    graphs of their shares first.  Every child is reaped before this returns
    or raises."""
    outcomes = [None] * len(graphs)
    children = []  # (share, pid, read end of the child's pipe)
    try:
        for k in range(1, workers):
            try:
                children.append((k, *_fork_share(graphs[k::workers], args)))
            except OSError:  # no process to spare: share k is left
                break
        try:
            for i in range(0, len(graphs), workers):
                outcomes[i] = _outcome(graphs[i], args)
        except FlowAlgError:
            return outcomes
        for k, _, fd in children:
            for i, outcome in zip(range(k, len(graphs), workers),
                                  _read_outcomes(fd)):
                outcomes[i] = outcome
    finally:
        import signal

        for _, pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)  # no effect on a child that is done
            os.waitpid(pid, 0)
    return outcomes


def _fork_share(share: list, args: tuple) -> tuple:
    """Fork a child that verifies ``share`` and writes the outcomes of its
    graphs, up to the first that raises, to a pipe as one JSON list, then
    leaves by ``os._exit``.  Returns the child's pid and the pipe's read
    end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            done = []
            try:
                for g in share:
                    done.append(_outcome(g, args))
            finally:
                with open(w, "wb") as pipe:
                    pipe.write(json.dumps(done).encode())
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


def _read_outcomes(fd: int) -> list:
    """The outcomes a child wrote to the pipe ``fd``; none if it died before
    it wrote them all."""
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    try:
        return json.loads(data)
    except ValueError:
        return []
