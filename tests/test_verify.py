import importlib
import json
import os
import random
import threading

import pytest

from flowalg.cli import main
from flowalg.corpus import connected_multigraphs
from flowalg.errors import CheckError, InputError
from flowalg.graph import (Graph, bouquet_graph, complete_graph,
                           dipole_graph)
from flowalg.lattice import FlowLattice
from flowalg.report import CheckReport
from flowalg.verify import orientation_invariance, run_corpus

from conftest import is_loop

corpus_mod = importlib.import_module("flowalg.corpus")
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
    # named first when the trial count is negative too, as in verify_graph
    with pytest.raises(InputError, match="theta bound -1 is negative"):
        orientation_invariance(complete_graph(4), -2, theta_bound=-1)


def test_verify_graph_refuses_a_negative_trial_count_first(monkeypatch):
    def reached(g, bound):
        raise AssertionError("ran the theta product")

    monkeypatch.setattr(verify, "theta_product", reached)
    with pytest.raises(InputError, match="trial count -1 is negative"):
        verify.verify_graph(complete_graph(4), trials=-1)


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


# -- corpus runner -----------------------------------------------------------


def serial_corpus(max_edges):
    """The corpus results of one ``verify_graph`` call after another, in
    corpus order: the reference for ``run_corpus``."""
    graphs = connected_multigraphs(max_edges)
    out = {"graphs": len(graphs), "max-edges": max_edges, "checks-run": 0,
           "failures": [], "exploratory-failures": []}
    for g in graphs:
        report = verify.verify_graph(g)
        out["checks-run"] += len(report.checks)
        for c in report.checks:
            if not c.passed:
                key = "exploratory-failures" if c.exploratory else "failures"
                out[key].append({"graph": [list(e) for e in g.edges],
                                 "vertices": list(g.vertices),
                                 "check": c.name, "detail": c.detail})
    return out


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("inject", [False, True])
def test_parallel_corpus_equals_the_serial_loop(monkeypatch, inject):
    # With ``inject``, every third graph also fails a check, and every
    # fifth an exploratory one, so the merge order of failures shows.
    if inject:
        real = verify.verify_graph
        index = {g: i for i, g in enumerate(connected_multigraphs(5))}

        def failing(g, **kwargs):
            report = real(g, **kwargs)
            i = index[g]
            if i % 3 == 0:
                report.add("injected", False, f"graph {i}")
            if i % 5 == 0:
                report.add("injected-exploratory", False, f"graph {i}",
                           exploratory=True)
            return report

        monkeypatch.setattr(verify, "verify_graph", failing)
    expected = serial_corpus(5)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    got = run_corpus(5)
    assert json.dumps(got) == json.dumps(expected)
    assert len(forks) == verify._worker_count(expected["graphs"]) - 1
    assert_no_child_left()


def test_one_cpu_runs_the_corpus_without_forking(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_corpus(4) == serial_corpus(4)


def test_corpus_shares_that_cannot_fork_run_in_the_parent(monkeypatch):
    def refuse():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", refuse)
    assert run_corpus(4) == serial_corpus(4)


def test_corpus_does_not_fork_while_another_thread_runs(monkeypatch):
    # a forked child would hold a copy of the calling thread only
    def no_fork():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert run_corpus(4) == serial_corpus(4)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


def test_corpus_share_of_a_lost_child_runs_in_the_parent(monkeypatch):
    # a child that dies before writing leaves its share to the parent
    parent = os.getpid()
    real = verify.verify_graph

    def dying(g, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(g, **kwargs)

    monkeypatch.setattr(verify, "verify_graph", dying)
    assert run_corpus(4) == serial_corpus(4)
    assert_no_child_left()


def test_corpus_refuses_negative_bounds_before_generating(monkeypatch):
    def generate(max_edges):
        raise AssertionError("generated the corpus")

    monkeypatch.setattr(corpus_mod, "connected_multigraphs", generate)
    with pytest.raises(InputError, match="theta bound -1 is negative"):
        run_corpus(3, theta_bound=-1)
    with pytest.raises(InputError, match="trial count -2 is negative"):
        run_corpus(3, trials=-2)


@pytest.mark.parametrize("error, code, kind",
                         [(CheckError, 1, "check"), (InputError, 2, "input")])
@pytest.mark.parametrize("child_first", [True, False])
def test_corpus_raises_the_first_error_in_corpus_order(
        monkeypatch, capsys, child_first, error, code, kind):
    """A graph of a child's share and one of the parent's share raise; the
    one first in corpus order is raised, with its type and message, by the
    library and the CLI, and no child is left either way."""
    graphs = connected_multigraphs(5)
    workers = verify._worker_count(len(graphs))
    if workers < 2:
        pytest.skip("needs two CPUs")
    child = 2 * workers + 1          # share 1
    parent = 4 * workers if child_first else 2 * workers  # share 0
    bad = {graphs[child]: child, graphs[parent]: parent}

    def verify_graph(g, **kwargs):
        if g in bad:
            raise error(f"injected failure on graph {bad[g]}")
        report = CheckReport()
        report.add("ok", True)
        return report

    monkeypatch.setattr(verify, "verify_graph", verify_graph)
    with pytest.raises(error) as serial:
        serial_corpus(5)
    first = min(child, parent)
    assert str(serial.value) == f"injected failure on graph {first}"

    with pytest.raises(error) as parallel:
        run_corpus(5)
    assert type(parallel.value) is error
    assert str(parallel.value) == str(serial.value)
    assert_no_child_left()

    assert main(["corpus", "--max-edges", "5"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == str(serial.value)
    assert doc["kind"] == kind
    assert_no_child_left()
