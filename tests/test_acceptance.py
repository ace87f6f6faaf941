"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpus-wide
criteria share one verification pass over all connected multigraphs with at
most 7 edges (fixture ``corpus_reports``); criterion 2 and criterion 11 run
their own dedicated passes because one carries a stopwatch and the other
re-orients every graph 50 times.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from flowalg.circulation import (GF, QQ, ZZ, Circulation, divided_power,
                                 exponential, monomial_dimensions, nilpotence)
from flowalg.graph import complete_graph, cycle_graph
from flowalg.lattice import codichromatic_compare, flows_of_norm, theta_enumerate
from flowalg.relations import product_torsion, rank_sequence
from flowalg.series import QSeries
from flowalg.tutte import poincare, trimmed, tutte
from flowalg.verify import orientation_invariance, verify_graph


def _report(n, ok, msg):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {msg}", flush=True)
    assert ok, f"criterion {n}: {msg}"


@pytest.fixture(scope="module")
def corpus_reports(corpus7):
    reports = {}
    for idx, g in enumerate(corpus7):
        reports[idx] = verify_graph(g, theta_bound=12)
    return reports


def _statuses(reports, names):
    bad = []
    for idx, rep in reports.items():
        for c in rep.checks:
            if c.name in names and not c.passed:
                bad.append((idx, c.name, c.detail))
    return bad


def test_criterion_1_k4_poincare():
    start = time.monotonic()
    coeffs = poincare(complete_graph(4))
    elapsed = time.monotonic() - start
    ok = coeffs == [1, 3, 6, 10, 11, 6, 1] and elapsed < 1.0
    _report(1, ok, f"K4 sequence {coeffs} in {elapsed:.3f}s")


def test_criterion_2_three_oracle_agreement(corpus7):
    start = time.monotonic()
    disagreements = 0
    for g in corpus7:
        a = trimmed(poincare(g))
        b = trimmed(rank_sequence(g))
        c = trimmed(monomial_dimensions(g))
        if not (a == b == c):
            disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 300
    _report(2, ok, f"{len(corpus7)} graphs, {disagreements} disagreements, "
                   f"{elapsed:.1f}s")


def test_criterion_3_torsion_freeness(corpus_reports):
    bad = _statuses(corpus_reports, {"torsion-free"})
    _report(3, not bad, f"{len(corpus_reports)} graphs, "
                        f"{len(bad)} with torsion")


def test_criterion_4_recurrences(corpus_reports):
    names = {"deletion-contraction", "doubled-edge", "one-point-union"}
    bad = _statuses(corpus_reports, names)
    _report(4, not bad, f"deletion-contraction, edge-doubling and "
                        f"one-point-union identities; {len(bad)} failures")


def test_criterion_5_lattice_identities(corpus_reports):
    names = {"gram-determinant", "characteristic-flows"}
    bad = _statuses(corpus_reports, names)
    _report(5, not bad, f"Gram determinant, norm and potential identities; "
                        f"{len(bad)} failures")


def test_criterion_6_theta_cross_validation(corpus_reports):
    names = {"theta-product-vs-enumerate", "theta-even-coefficients"}
    bad = _statuses(corpus_reports, names)
    c3 = theta_enumerate(cycle_graph(3), 12)
    expect = QSeries.from_dict(
        {Fraction(0): 1, Fraction(3): 2, Fraction(12): 2}, 12)
    ok = not bad and c3 == expect
    _report(6, ok, f"product vs enumeration to norm 12; {len(bad)} failures; "
                   f"C3 series {c3}")


def test_criterion_7_figure_pair(fig1_left, fig1_right):
    rep = codichromatic_compare(fig1_left, fig1_right, 12)
    n_left = flows_of_norm(fig1_left, 7)
    n_right = flows_of_norm(fig1_right, 7)
    first = rep["theta_first_difference"]
    ok = (rep["tutte_equal"] and n_left == 20 and n_right == 22
          and first == 7)
    _report(7, ok, f"tutte_equal={rep['tutte_equal']}, norm-7 counts "
                   f"{n_left}/{n_right}, theta first differ at {first} "
                   f"(stated: 7; see decisions ledger if failing)")


def test_criterion_8_inequality_suite(corpus_reports):
    names = {"endpoint-values", "support-interval", "pseudopower-growth",
             "cycle-length-product-bound", "girth-range-binomial",
             "front-half-monotone", "duality-bound"}
    bad = _statuses(corpus_reports, names)
    logc_fail = 0
    for rep in corpus_reports.values():
        for c in rep.checks:
            if c.name == "log-concavity" and not c.passed:
                logc_fail += 1
    _report(8, not bad,
            f"bound suite {len(bad)} failures; exploratory log-concavity "
            f"{'holds corpus-wide' if logc_fail == 0 else f'fails on {logc_fail} graphs'}")


def test_criterion_9_algebra_properties():
    rng = random.Random(9)
    rings = [QQ, ZZ, GF(2), GF(3), GF(5)]
    cases = 0

    def rand_table(max_bits=5, allow_empty=True, degree_one=False):
        masks = ([1 << i for i in range(max_bits)] if degree_one
                 else list(range(0 if allow_empty else 1, 1 << max_bits)))
        size = rng.randint(0 if allow_empty else 1, 4)
        return {rng.choice(masks): rng.randint(-4, 4) for _ in range(size)}

    for _ in range(60):  # ring laws
        ring = rng.choice(rings)
        x = Circulation(ring, rand_table())
        y = Circulation(ring, rand_table())
        z = Circulation(ring, rand_table())
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert Circulation.unit(ring) * x == x
        cases += 1
    for _ in range(60):  # exponential homomorphism
        ring = rng.choice(rings)
        a = rand_table()
        b = rand_table()
        a.pop(0, None)
        b.pop(0, None)
        phi, theta = Circulation(ring, a), Circulation(ring, b)
        assert exponential(phi + theta) == exponential(phi) * exponential(theta)
        cases += 1
    for _ in range(60):  # nilpotence over Q, Z and F_p
        table = rand_table(degree_one=True)
        if not table:
            table = {1: 1}
        for ring in (QQ, ZZ):
            phi = Circulation(ring, table)
            assert nilpotence(phi) == len(phi.table)
        p = rng.choice([2, 3, 5])
        phi = Circulation(GF(p), table)
        assert nilpotence(phi) == min(p - 1, len(phi.table))
        cases += 1
    for _ in range(60):  # divided-power binomial identity
        ring = rng.choice(rings)
        phi = Circulation(ring, rand_table(degree_one=True))
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        lhs = divided_power(phi, i) * divided_power(phi, j)
        assert lhs == divided_power(phi, i + j).scale(comb(i + j, i))
        cases += 1
    _report(9, cases >= 200, f"{cases} randomized exact algebra cases")


def test_criterion_10_product_torsion_oracle():
    checked = 0
    failures = []
    for n in range(2, 7):
        g = cycle_graph(n)
        for i in range(1, n):
            for j in range(1, n - i + 1):
                got = product_torsion(g, i, j)
                want = (comb(i + j, i),)
                checked += 1
                if got != want:
                    failures.append((n, i, j, got))
    _report(10, not failures,
            f"{checked} cyclic product-quotients match binomial groups; "
            f"failures: {failures}")


def test_criterion_11_orientation_invariance(corpus7):
    start = time.monotonic()
    bad = 0
    for g in corpus7:
        if not orientation_invariance(g, trials=50, seed=2024):
            bad += 1
    elapsed = time.monotonic() - start
    _report(11, bad == 0,
            f"50 flip trials on each of {len(corpus7)} graphs, "
            f"{bad} invariance failures, {elapsed:.0f}s")
