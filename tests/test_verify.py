import importlib
import random

import pytest

from flowalg.errors import InputError
from flowalg.graph import (Graph, bouquet_graph, complete_graph,
                           dipole_graph)
from flowalg.lattice import FlowLattice
from flowalg.verify import orientation_invariance

from conftest import is_loop

lattice_mod = importlib.import_module("flowalg.lattice")
relations = importlib.import_module("flowalg.relations")
verify = importlib.import_module("flowalg.verify")

# a parallel pair, a loop and a triangle
MIXED = Graph((1, 2, 3), ((1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 3, 1),
                          (5, 3, 3)))


def test_orientation_invariance_holds_on_small_graphs():
    for g in (complete_graph(4), dipole_graph(3), bouquet_graph(2)):
        assert orientation_invariance(g, trials=12, seed=5)


def test_orientation_invariance_refuses_a_negative_theta_bound():
    with pytest.raises(InputError):
        orientation_invariance(complete_graph(4), 3, theta_bound=-1)


def test_orientation_trials_skip_copies_already_checked(monkeypatch):
    # Each checked copy builds one lattice, after the reference's.  The
    # draws repeat flips and differ only on the loop, so fewer copies than
    # trials are checked.
    trials, seed = 40, 3
    built = []
    real = verify.lattice

    def spy(h):
        built.append(h)
        return real(h)

    monkeypatch.setattr(verify, "lattice", spy)
    assert orientation_invariance(MIXED, trials, seed=seed)
    rng = random.Random(seed)
    ids = list(MIXED.edge_ids)
    loops = {eid for eid in ids if is_loop(MIXED, eid)}
    draws = [frozenset(eid for eid in ids if rng.getrandbits(1))
             for _ in range(trials)]
    copies = {flips - loops for flips in draws}
    assert len(copies) < len(set(draws)) < trials
    assert built[0] is MIXED
    assert len(built) == 1 + len(copies)


def _patched_copies(monkeypatch, g, change):
    """Route every re-oriented copy's class table through ``change``, both
    where the sign rule reads it and where the copy's relation matrices are
    built; the reference table of ``g`` itself is left as built."""
    real = relations._class_table

    def patched(h):
        table = real(h)
        return table if h.edges == g.edges else change(table)

    monkeypatch.setattr(verify, "_class_table", patched)
    monkeypatch.setattr(relations, "_class_table", patched)


def test_orientation_invariance_rejects_a_rank_change(monkeypatch):
    # A pipeline that loses the ports of the partitions of the one-edge
    # masks, which hold the degree-2 rows of K4, on every re-oriented copy
    # fails the sign rule, so the copy's own rank sequence is computed and
    # must differ from the reference.
    g = complete_graph(4)

    def lossy(table):
        lost = {table.part[1 << i] for i in range(g.num_edges)}
        return table._replace(ports=[
            tuple((v, 0, 0) for v, _, _ in ports) if p in lost else ports
            for p, ports in enumerate(table.ports)])

    _patched_copies(monkeypatch, g, lossy)
    assert not orientation_invariance(g, trials=5, seed=1)


def test_orientation_invariance_ranks_other_forms_exactly(monkeypatch):
    # Swapping the two port masks of each partition's first class negates
    # its rows: the rank stays, but the sign rule fails, so each re-oriented
    # copy must have its own rank sequence computed.
    g = complete_graph(4)
    real_ranks = verify.rank_sequence
    ranked = []

    def negated(table):
        return table._replace(ports=[((v, out, into), *rest)
                                     for (v, into, out), *rest
                                     in table.ports])

    def spy(h):
        ranked.append(h)
        return real_ranks(h)

    _patched_copies(monkeypatch, g, negated)
    monkeypatch.setattr(verify, "rank_sequence", spy)
    assert orientation_invariance(g, trials=5, seed=1)
    assert any(h.edges != g.edges for h in ranked)


def _spy_theta(monkeypatch):
    calls = []
    real = verify.theta_enumerate

    def spy(h, bound):
        calls.append(h)
        return real(h, bound)

    monkeypatch.setattr(verify, "theta_enumerate", spy)
    return calls


def test_reoriented_gram_follows_the_sign_rule(corpus5, monkeypatch):
    # Every flip keeps the forest, so each Gram is S G S for the diagonal
    # of flipped chords and no theta series needs enumerating.
    calls = _spy_theta(monkeypatch)
    for g in corpus5:
        assert orientation_invariance(g, trials=10, seed=3)
    assert calls == []


def test_permuted_gram_passes_through_the_theta_fallback(monkeypatch):
    # A permuted Gram is isometric but not S G S: the series decide.
    g = complete_graph(4)
    real = verify.lattice

    def permuted(h):
        lat = real(h)
        if h.edges == g.edges:
            return lat
        return FlowLattice(lat.chords[::-1], lat.basis[::-1],
                           tuple(row[::-1] for row in lat.gram[::-1]),
                           lat.determinant)

    monkeypatch.setattr(verify, "lattice", permuted)
    calls = _spy_theta(monkeypatch)
    assert orientation_invariance(g, trials=5, seed=1)
    assert calls


def test_equal_determinant_non_isometric_gram_is_rejected(monkeypatch):
    # A 2-cycle and a triangle at one vertex: Gram diag(2, 3).  diag(1, 6)
    # has the same determinant but a vector of norm 1.
    g = Graph((1, 2, 3, 4), ((1, 1, 2), (2, 2, 1), (3, 1, 3), (4, 3, 4),
                             (5, 4, 1)))
    real = lattice_mod.lattice
    assert real(g).gram == ((2, 0), (0, 3))

    def fake(h):
        lat = real(h)
        if h.edges == g.edges:
            return lat
        return FlowLattice(lat.chords, lat.basis, ((1, 0), (0, 6)),
                           lat.determinant)

    monkeypatch.setattr(verify, "lattice", fake)
    monkeypatch.setattr(lattice_mod, "lattice", fake)
    assert not orientation_invariance(g, trials=5, seed=1)
