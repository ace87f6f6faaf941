"""Exact invariants of finite multigraphs: Tutte and rank-sequence
polynomials, circulation algebras, integer flow lattices and their theta
functions, with every quantity cross-validated through at least two
independent computational routes.

The public names below are resolved on first use (PEP 562), so importing
the package or one of its modules loads only the modules that are asked
for.  ``flowalg.tutte`` and ``flowalg.lattice`` are the submodules; their
functions of the same name are imported from them
(``from flowalg.tutte import tutte``).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "circulation": (
        "Circulation", "GF", "QQ", "Ring", "ZZ", "divided_power",
        "exponential", "monomial_dimensions", "nilpotence", "pseudopower",
        "relation_membership_check", "verify_inequalities"),
    "errors": ("CapacityError", "CheckError", "FlowAlgError", "InputError"),
    "graph": (
        "Graph", "build", "bouquet_graph", "complete_graph", "cycle_graph",
        "dipole_graph", "disjoint_union", "one_point_union", "path_graph"),
    "lattice": (
        "CharacteristicFlow", "CosetSystem", "FlowLattice",
        "characteristic_flow", "codichromatic_compare", "coset_system",
        "flows_of_norm", "theta_enumerate", "theta_product"),
    "relations": (
        "RelationMatrix", "integral_circulations", "product_torsion",
        "rank_sequence", "relation_matrix", "torsion_check"),
    "series": ("QSeries", "psi_series"),
    "tutte": ("BiPoly", "complexity", "poincare"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
