"""The benchmark's traced run requires calls from named layers
(``REQUIRED_CALLS`` in ``perfbench/tracing.py``), and ``tracing.install``
times only plain public functions defined in their own ``flowalg`` module,
plus ``Graph.contract``.  This test reads that table and checks that every
name still resolves the way ``install`` wraps it, and that the attributes its
hooks read exist, so a removed, renamed, moved or decorated layer shows here
rather than in a full traced run.  It cannot see a layer that exists but
makes no calls on a workload."""

import importlib
import importlib.util
import inspect
import math
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_required_layers_are_wrapped_functions():
    tracing = _tracing()
    names = {name for layers in tracing.REQUIRED_CALLS.values()
             for name in layers}
    assert names
    for name in sorted(names):
        short, _, attr = name.partition(".")
        assert short in tracing.MODULES, name
        module = importlib.import_module(f"flowalg.{short}")
        if name == "graph.Graph.contract":
            assert callable(module.Graph.contract)
            continue
        obj = getattr(module, attr, None)
        assert inspect.isfunction(obj), f"{name} is not a plain function"
        assert obj.__module__ == module.__name__, name
        assert not attr.startswith("_"), name


def test_hook_attributes_exist():
    tutte = importlib.import_module("flowalg.tutte")
    relations = importlib.import_module("flowalg.relations")
    lattice = importlib.import_module("flowalg.lattice")
    assert callable(tutte._normal_form)
    # the hooks take len() of these fields of real results
    g = importlib.import_module("flowalg.graph").complete_graph(4)
    assert len(relations.relation_matrix(g, 1).rows) == g.num_vertices
    system = lattice.coset_system(g)
    assert len(system.representatives) == math.prod(system.indices) > 1
