import importlib.util
import json
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap

import pytest

import flowalg.cli as cli
import flowalg.errors as errors
import flowalg.verify as verify
from flowalg.cli import main, parse_graph
from flowalg.errors import InputError
from flowalg.report import CheckReport

from conftest import is_loop, qseries_one

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_graph_basic(tmp_path):
    path = tmp_path / "g.g"
    path.write_text("vertex 1\nvertex 2\nedge 1 1 2\n")
    g = parse_graph(str(path))
    assert g.num_vertices == 2
    assert g.edges == ((1, 1, 2),)


def test_parse_graph_loop(tmp_path):
    path = tmp_path / "g.g"
    path.write_text("vertex 1\nedge 1 1 1\n")
    assert is_loop(parse_graph(str(path)), 1)


def test_parse_graph_duplicate_edge_id(tmp_path):
    path = tmp_path / "g.g"
    path.write_text("vertex 1\nvertex 2\nedge 1 1 2\nedge 1 2 1\n")
    with pytest.raises(InputError, match="4"):
        parse_graph(str(path))


def test_parse_graph_unknown_vertex(tmp_path):
    path = tmp_path / "g.g"
    path.write_text("vertex 1\nedge 1 1 5\n")
    with pytest.raises(InputError, match="2"):
        parse_graph(str(path))


def test_parse_graph_malformed_line(tmp_path):
    path = tmp_path / "g.g"
    path.write_text("vertex 1\nwhat 3 4\n")
    with pytest.raises(InputError, match="2"):
        parse_graph(str(path))


def test_poincare_k4(capsys, graph_dir):
    code, doc = run_cli(capsys, "poincare", str(graph_dir / "k4.g"))
    assert code == 0
    assert doc["results"]["poincare"] == [1, 3, 6, 10, 11, 6, 1]


def test_ranks_forest_all_oracles(capsys, graph_dir):
    code, doc = run_cli(capsys, "ranks", str(graph_dir / "path3.g"),
                        "--oracle", "all")
    assert code == 0
    assert doc["results"]["tutte"] == [1]
    assert doc["results"]["relations"] == [1]
    assert doc["results"]["monomials"] == [1]
    assert doc["checks"][0]["status"] == "pass"


def test_ranks_disagreement_exits_one(capsys, graph_dir, monkeypatch):
    monkeypatch.setattr("flowalg.relations.rank_sequence",
                        lambda g: (1, 9, 9, 9))
    code, doc = run_cli(capsys, "ranks", str(graph_dir / "c3.g"),
                        "--oracle", "all")
    assert code == 1
    assert doc["checks"][0]["status"] == "fail"


@pytest.mark.parametrize("target, fake, argv, check", [
    ("flowalg.tutte.complexity", lambda g: 1,
     ("char-flow", "k4.g", "--edge", "1"), "norm-identity"),
    ("flowalg.lattice.theta_enumerate", lambda g, bound: qseries_one(bound),
     ("theta", "c3.g", "--method", "both"), "theta-routes-agree"),
], ids=["char-flow", "theta"])
def test_failed_check_exits_one(capsys, graph_dir, monkeypatch, target, fake,
                                argv, check):
    monkeypatch.setattr(target, fake)
    command, graph, *options = argv
    code, doc = run_cli(capsys, command, str(graph_dir / graph), *options)
    assert code == 1
    assert doc["checks"] == [{"check": check, "status": "fail"}]


@pytest.mark.parametrize("exploratory, code, statuses", [
    (True, 0, ["pass", "exploratory-fail"]),
    (False, 1, ["pass", "fail"]),
], ids=["exploratory", "not-exploratory"])
def test_verify_exit_code_ignores_exploratory_failures(
        capsys, graph_dir, monkeypatch, exploratory, code, statuses):
    report = CheckReport()
    report.add("a", True)
    report.add("b", False, exploratory=exploratory)
    monkeypatch.setattr(verify, "verify_graph", lambda g, **kw: report)
    got, doc = run_cli(capsys, "verify", str(graph_dir / "c3.g"))
    assert got == code
    assert [c["status"] for c in doc["checks"]] == statuses


@pytest.mark.parametrize("key, code", [("failures", 1),
                                       ("exploratory-failures", 0)])
def test_corpus_exit_code_follows_non_exploratory_failures(capsys,
                                                           monkeypatch,
                                                           key, code):
    results = {"graphs": 1, "max-edges": 1, "checks-run": 1, "failures": [],
               "exploratory-failures": []}
    results[key] = [{"graph": [], "vertices": [1], "check": "c",
                     "detail": ""}]
    monkeypatch.setattr(verify, "run_corpus", lambda *a, **kw: results)
    got, doc = run_cli(capsys, "corpus", "--max-edges", "1")
    assert got == code
    assert doc["results"] == results
    assert doc["checks"] == [{"check": "corpus",
                              "status": "fail" if code else "pass"}]


def test_theta_both_methods(capsys, graph_dir):
    code, doc = run_cli(capsys, "theta", str(graph_dir / "c3.g"),
                        "--max-norm", "12", "--method", "both")
    assert code == 0
    assert doc["results"]["product"] == [["0", 1], ["3", 2], ["12", 2]]
    assert doc["results"]["product"] == doc["results"]["enumerate"]
    assert doc["checks"][0]["status"] == "pass"


def test_char_flow(capsys, graph_dir):
    code, doc = run_cli(capsys, "char-flow", str(graph_dir / "k4.g"),
                        "--edge", "1")
    assert code == 0
    assert doc["results"]["norm"] == "2"
    assert doc["checks"][0]["status"] == "pass"


def test_flows_of_norm(capsys, graph_dir):
    code, doc = run_cli(capsys, "flows-of-norm", str(graph_dir / "fig1_left.g"),
                        "--norm", "7")
    assert code == 0
    assert doc["results"]["count"] == 20


def test_compare_figure_pair(capsys, graph_dir):
    code, doc = run_cli(capsys, "compare", str(graph_dir / "fig1_left.g"),
                        str(graph_dir / "fig1_right.g"), "--max-norm", "12")
    assert code == 0
    assert doc["results"]["tutte-equal"] is True
    assert doc["results"]["theta-first-difference"] is not None


def test_torsion_command(capsys, graph_dir):
    code, doc = run_cli(capsys, "torsion", str(graph_dir / "c4.g"),
                        "--degrees", "1,2")
    assert code == 0
    assert doc["results"]["invariant-factors"] == [3]
    assert doc["results"]["group"] == "Z/3"


def test_verify_command(capsys, graph_dir):
    code, doc = run_cli(capsys, "verify", str(graph_dir / "c3.g"),
                        "--trials", "3")
    assert code == 0
    statuses = {c["check"]: c["status"] for c in doc["checks"]}
    assert statuses["oracle-tutte-vs-relations"] == "pass"
    assert statuses["orientation-invariance"] == "pass"


def test_verify_refuses_negative_trials(capsys, graph_dir):
    code, doc = run_cli(capsys, "verify", str(graph_dir / "c3.g"),
                        "--trials", "-3")
    assert code == 2
    assert doc["kind"] == "input"
    assert doc["error"] == "trial count -3 is negative"


def test_verify_refuses_negative_theta_bound(capsys, graph_dir):
    code, doc = run_cli(capsys, "verify", str(graph_dir / "c3.g"),
                        "--max-norm", "-5")
    assert code == 2
    assert doc["kind"] == "input"
    assert doc["error"] == "theta bound -5 is negative"


def test_verify_refuses_a_graph_with_no_vertices(capsys, tmp_path):
    # the one-point-union check needs a vertex to glue at
    path = tmp_path / "empty.g"
    path.write_text("# no vertices\n")
    code, doc = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert doc["kind"] == "input"


def test_corpus_refuses_negative_theta_bound(capsys):
    code, doc = run_cli(capsys, "corpus", "--max-edges", "2",
                        "--max-norm", "-1")
    assert code == 2
    assert doc["kind"] == "input"
    assert doc["error"] == "theta bound -1 is negative"


def test_corpus_refuses_negative_edge_bound(capsys):
    code, doc = run_cli(capsys, "corpus", "--max-edges", "-1")
    assert code == 2
    assert doc["kind"] == "input"
    assert doc["error"] == "edge bound -1 is negative"


@pytest.mark.parametrize("argv, error", [
    (("theta", "k4.g", "--max-norm", "-1"), "theta bound -1 is negative"),
    (("theta", "k4.g", "--method", "enumerate", "--max-norm", "-2"),
     "theta bound -2 is negative"),
    (("compare", "k4.g", "k4.g", "--max-norm", "-1"),
     "theta bound -1 is negative"),
    (("flows-of-norm", "k4.g", "--norm", "-3"), "norm -3 is negative"),
])
def test_lattice_commands_refuse_negative_bounds(capsys, graph_dir, argv,
                                                 error):
    argv = [str(graph_dir / a) if a.endswith(".g") else a for a in argv]
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    assert doc["kind"] == "input"
    assert doc["error"] == error


def test_corpus_command_small(capsys):
    code, doc = run_cli(capsys, "corpus", "--max-edges", "3")
    assert code == 0
    assert doc["results"]["graphs"] == 18
    assert doc["results"]["failures"] == []


@pytest.mark.parametrize("command, good", [("poincare", ()),
                                            ("compare", ("k4.g",))],
                         ids=["poincare", "compare-second-file"])
def test_input_error_exit_code(capsys, tmp_path, graph_dir, command, good):
    path = tmp_path / "bad.g"
    path.write_text("nonsense\n")
    code = main([command, *(str(graph_dir / f) for f in good), str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["kind"] == "input"
    assert doc["error"] == f"{path}:1: unrecognized line 'nonsense'"


def test_inputs_hash_the_bytes_that_were_parsed(capsys, monkeypatch,
                                                tmp_path, graph_dir):
    """A file rewritten while its command runs is reported with the hash
    of the bytes the command parsed, not of the new ones."""
    import hashlib
    import flowalg.tutte as tutte_mod

    original = (graph_dir / "k4.g").read_bytes()
    path = tmp_path / "g.g"
    path.write_bytes(original)
    real = tutte_mod.poincare

    def rewrite_then_run(g):
        path.write_text("vertex 1\n")
        return real(g)

    monkeypatch.setattr(tutte_mod, "poincare", rewrite_then_run)
    code, doc = run_cli(capsys, "poincare", str(path))
    assert code == 0
    assert doc["results"]["poincare"] == [1, 3, 6, 10, 11, 6, 1]
    assert doc["inputs"][0]["sha256"] == hashlib.sha256(original).hexdigest()


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_graph_file_is_an_input_error(capsys, tmp_path, kind):
    path = tmp_path / "graph.g"  # "missing": never created
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"\xff\xfe")
    code, doc = run_cli(capsys, "poincare", str(path))
    assert code == 2
    assert doc["kind"] == "input"
    assert doc["error"].startswith(f"cannot read {path}: ")


def _dipole_file(tmp_path, m):
    path = tmp_path / "big.g"
    lines = ["vertex 1", "vertex 2"]
    lines += [f"edge {i} 1 2" for i in range(1, m + 1)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_capacity_exit_code(capsys, tmp_path):
    path = _dipole_file(tmp_path, 22)
    code = main(["ranks", str(path), "--oracle", "relations"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["kind"] == "capacity"


@pytest.mark.parametrize("oracle", [[], ["--oracle", "all"],
                                    ["--oracle", "relations"],
                                    ["--oracle", "monomials"]])
def test_ranks_refuses_before_the_tutte_route(capsys, monkeypatch, tmp_path,
                                              oracle):
    def reached(g):
        raise AssertionError("ran the Tutte route")

    monkeypatch.setattr("flowalg.tutte.poincare", reached)
    code = main(["ranks", str(_dipole_file(tmp_path, 22))] + oracle)
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["kind"] == "capacity"


def test_ranks_by_tutte_alone_answers_above_the_ceiling(capsys, tmp_path):
    code, doc = run_cli(capsys, "ranks", str(_dipole_file(tmp_path, 22)),
                        "--oracle", "tutte")
    assert code == 0
    # T = x + y + ... + y^21: d_1 = m - n + 1 and the sum is T(1, 2)
    dims = doc["results"]["tutte"]
    assert (dims[:2], dims[-1], sum(dims)) == ([1, 21], 1, 2 ** 22 - 1)


def test_coset_ceiling_exit_code(capsys, monkeypatch, graph_dir):
    monkeypatch.setattr(errors, "MAX_COSET_REPRESENTATIVES", 100)
    code = main(["theta", str(graph_dir / "fig1_right.g"), "--max-norm", "12"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["kind"] == "capacity"


def test_verify_coset_ceiling_exit_code(capsys, monkeypatch, graph_dir):
    """A refused theta product is a capacity error, not a failed check."""
    monkeypatch.setattr(errors, "MAX_COSET_REPRESENTATIVES", 100)
    code = main(["verify", str(graph_dir / "fig1_right.g")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["kind"] == "capacity"
    assert "at most 100 are supported" in doc["error"]


def test_verify_refuses_the_coset_system_before_other_checks(
        capsys, monkeypatch, graph_dir):
    def refuse(g):
        raise AssertionError("rank_sequence ran before the refusal")

    monkeypatch.setattr(errors, "MAX_COSET_REPRESENTATIVES", 100)
    monkeypatch.setattr(verify, "rank_sequence", refuse)
    code = main(["verify", str(graph_dir / "fig1_right.g")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["kind"] == "capacity"


def test_corpus_ceiling_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(errors, "MAX_CORPUS_EDGES", 2)
    code, doc = run_cli(capsys, "corpus", "--max-edges", "3")
    assert code == 3
    assert doc["kind"] == "capacity"


def test_report_determinism(capsys, graph_dir):
    _, doc1 = run_cli(capsys, "lattice", str(graph_dir / "k4.g"))
    _, doc2 = run_cli(capsys, "lattice", str(graph_dir / "k4.g"))
    doc1.pop("elapsed_ms")
    doc2.pop("elapsed_ms")
    assert json.dumps(doc1, sort_keys=False) == json.dumps(doc2, sort_keys=False)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter from the repository root, with
    this checkout's sources first on the import path; fail with its
    standard error if it exits non-zero."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_numpy():
    run_fresh("import sys, flowalg.cli; "
              "assert 'numpy' not in sys.modules, 'numpy was imported'")


def test_commands_load_only_the_modules_they_run():
    run_fresh("""
        import sys
        import flowalg.cli

        def loaded():
            return {name.split(".", 1)[1] for name in sys.modules
                    if name.startswith("flowalg.")}

        assert loaded() == {"cli", "errors", "graph", "report"}, loaded()
        assert flowalg.cli.main(["poincare", "graphs/k4.g"]) == 0
        skipped = {"lattice", "relations", "circulation", "verify", "corpus",
                   "linalg", "series"}
        assert not loaded() & skipped, loaded() & skipped
        """)


def test_cli_start_up_loads_no_dataclasses_and_no_openssl():
    """``import flowalg.cli`` loads neither ``dataclasses`` (with
    ``inspect``) nor ``hashlib``, and a command that reads no file never
    loads ``hashlib``.  Only modules added by the import count, because
    ``site`` may preload some on other machines."""
    run_fresh("""
        import io, sys
        from contextlib import redirect_stdout

        before = set(sys.modules)
        import flowalg.cli
        added = set(sys.modules) - before
        assert not added & {"dataclasses", "inspect", "hashlib", "_hashlib"}, added
        with redirect_stdout(io.StringIO()):
            assert flowalg.cli.main(["corpus", "--max-edges", "2"]) == 0
        added = set(sys.modules) - before
        assert not added & {"hashlib", "_hashlib"}, added
        """)


def test_package_names_resolve_to_their_home_modules():
    """Each exported name is the object of that name in its home module,
    and ``flowalg.tutte`` and ``flowalg.lattice`` are the submodules, not
    the functions of the same name."""
    run_fresh("""
        import importlib
        import inspect
        import flowalg
        import flowalg.lattice as lattice_mod
        from flowalg.tutte import tutte

        assert inspect.ismodule(lattice_mod), lattice_mod
        assert tutte.__module__ == "flowalg.tutte"
        for name in flowalg.__all__:
            home = importlib.import_module(f"flowalg.{flowalg._HOME[name]}")
            assert getattr(flowalg, name) is getattr(home, name), name
        assert flowalg.lattice is lattice_mod
        assert inspect.ismodule(flowalg.tutte)
        assert {"lattice", "tutte"}.isdisjoint(flowalg.__all__)
        """)


def _figure_commands():
    spec = importlib.util.spec_from_file_location(
        "perfbench_figure", ROOT / "perfbench" / "figure.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def test_figure_reports_match_the_committed_reports(capsys, monkeypatch):
    """The benchmark's figure commands, run in-process from the repository
    root, print exactly the committed reports apart from ``elapsed_ms``,
    with the top-level fields in document order."""
    expected = json.loads(
        (ROOT / "perfbench" / "expected_reports.json").read_text())
    monkeypatch.chdir(ROOT)
    for command in _figure_commands():
        code, doc = run_cli(capsys, *shlex.split(command))
        assert code == 0, command
        checks = ["checks"] if "checks" in doc else []
        assert list(doc) == (["command", "inputs", "results"] + checks
                             + ["elapsed_ms"]), command
        doc.pop("elapsed_ms")
        assert doc == expected[command], command
