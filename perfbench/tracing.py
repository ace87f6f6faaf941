"""Per-layer timing for the benchmark, applied from outside the program.

``install`` replaces every public function of every ``flowalg`` module, and
``Graph.contract``, by a timing wrapper.  The replacement is made wherever
the function is bound: in its own module and in every ``flowalg`` module
that imported it by name (``verify.poincare``, ``lattice.complexity``, ...),
so calls between modules are seen as well as calls from the benchmark.

For each wrapped name the profile keeps the number of calls, the total time
(outermost calls only, so recursion is not counted twice) and the self time
(total minus the time spent in wrapped callees).  A few layers also keep a
count of the work they did: relation rows built, rows eliminated, coset
representatives, lattice vectors enumerated, corpus graphs generated, and
the number of distinct Tutte oracle inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("circulation", "cli", "corpus", "errors", "graph", "lattice",
           "linalg", "relations", "report", "series", "tutte", "verify")

# Layers that must show calls on a workload; a traced run in which one of
# them reports zero calls fails.
REQUIRED_CALLS = {
    "corpus-verify": (
        "tutte.tutte_by_subsets", "tutte.poincare", "tutte.complexity",
        "relations.relation_matrix", "graph.Graph.contract",
        "relations.rank_sequence", "linalg.smith_normal_form",
        "relations.torsion_check", "linalg.rank_int_rows",
        "lattice.characteristic_flow", "linalg.min_norm_affine",
        "lattice.coset_system", "lattice.theta_product", "series.psi_series",
        "lattice.theta_enumerate", "linalg.enumerate_by_norm",
        "lattice.lattice", "circulation.monomial_dimensions",
        "circulation.verify_inequalities", "corpus.connected_multigraphs",
        "corpus.canonical_key", "verify.verify_graph"),
    "corpus-orient": (
        "tutte.tutte_by_subsets", "tutte.poincare", "tutte.complexity",
        "relations.relation_matrix", "graph.Graph.contract",
        "relations.rank_sequence", "verify.orientation_invariance",
        "linalg.rank_int_rows", "corpus.connected_multigraphs",
        "corpus.canonical_key"),
    "figure-cli": (
        "tutte.tutte_by_subsets", "tutte.poincare",
        "lattice.coset_system", "lattice.theta_product", "series.psi_series",
        "circulation.monomial_dimensions", "circulation.verify_inequalities",
        "circulation.relation_membership_check",
        "corpus.connected_multigraphs", "corpus.canonical_key",
        "verify.verify_graph", "verify.multiplication_rank_check",
        "cli.main"),
}


class Profile:
    """Calls, times and work counts per wrapped name, for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, total_s, depth]
        self.counts: dict[str, int] = {}
        self.tutte_keys: set = set()
        self._child: list[float] = []      # time in wrapped callees, per open frame

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, before=None, after=None):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                if before is not None:
                    before(args)
                rec[3] += 1
                child.append(0.0)
                t1 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t1
                    rec[3] -= 1
                    rec[0] += 1
                    rec[1] += elapsed - child.pop()
                    if rec[3] == 0:
                        rec[2] += elapsed
                if after is not None:
                    after(args, result)
                return result
            finally:
                if child:
                    child[-1] += perf_counter() - t0

        return wrapper

    def snapshot(self) -> dict:
        """Plain-data view: ``{"stats": {name: [calls, self_s, total_s]},
        "counts": {...}}`` with the distinct Tutte input count folded in."""
        counts = dict(self.counts)
        counts["tutte.tutte_by_subsets.distinct"] = len(self.tutte_keys)
        return {"stats": {k: v[:3] for k, v in self.stats.items()},
                "counts": counts}


def install(profile: Profile) -> None:
    """Import every ``flowalg`` module and rebind its public functions, and
    ``Graph.contract``, to wrappers recording into ``profile``."""
    modules = {short: importlib.import_module(f"flowalg.{short}")
               for short in MODULES}
    tutte_mod = modules["tutte"]

    hooks = {
        # the memo's own exact key, so distinct_frac measures memoisable work
        "tutte.tutte_by_subsets": (
            lambda a: profile.tutte_keys.add(tutte_mod._normal_form(a[0])),
            None),
        "relations.relation_matrix": (
            None, lambda a, r: profile.count("relations.relation_matrix.rows",
                                             len(r.rows))),
        "linalg.rank_int_rows": (
            lambda a: profile.count("linalg.rank_int_rows.rows", len(a[0])),
            None),
        "lattice.coset_system": (
            None, lambda a, r: profile.count(
                "lattice.coset_system.representatives",
                len(r.representatives))),
        "linalg.enumerate_by_norm": (
            None, lambda a, r: profile.count("linalg.enumerate_by_norm.vectors",
                                             len(r))),
        "corpus.connected_multigraphs": (
            None, lambda a, r: profile.count(
                "corpus.connected_multigraphs.graphs", len(r))),
    }

    replacement = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                before, after = hooks.get(name, (None, None))
                replacement[obj] = profile.wrap(name, obj, before, after)
    for mod in (importlib.import_module("flowalg"), *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(mod, attr, replacement[obj])
    graph_cls = modules["graph"].Graph
    graph_cls.contract = profile.wrap("graph.Graph.contract",
                                      graph_cls.contract)


def merge(snapshots: list[dict]) -> dict:
    """Sum per-process snapshots (the CLI workload runs one per command)."""
    stats: dict[str, list] = {}
    counts: dict[str, float] = {}
    for snap in snapshots:
        for name, vals in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, v in snap["counts"].items():
            counts[name] = counts.get(name, 0) + v
    return {"stats": stats, "counts": counts}


def layer_metrics(profile: dict, names: list[str]) -> dict[str, float]:
    """Values of the named per-layer metrics from a (merged) snapshot.

    ``<layer>.calls``, ``.self_s`` and ``.total_s`` come from the timing
    stats, ``tutte.tutte_by_subsets.distinct_frac`` is distinct inputs over
    calls, and every other name is looked up among the counts.  A layer that
    was never called reads 0.
    """
    stats, counts = profile["stats"], profile["counts"]
    fields = {"calls": 0, "self_s": 1, "total_s": 2}
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name == "tutte.tutte_by_subsets.distinct_frac":
            calls = stats.get(layer, [0])[0]
            out[name] = (counts.get("tutte.tutte_by_subsets.distinct", 0)
                         / calls if calls else 0.0)
        elif stat in fields:
            out[name] = stats.get(layer, [0, 0.0, 0.0])[fields[stat]]
        else:
            out[name] = counts.get(name, 0)
    return out
